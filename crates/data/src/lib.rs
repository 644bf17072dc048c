//! # dmac-data — synthetic dataset generators
//!
//! The paper evaluates on Netflix, four web/social graphs (soc-pokec,
//! cit-Patents, LiveJournal, Wikipedia) and synthetic sparse matrices.
//! None of those are shippable here, so this crate generates laptop-scale
//! stand-ins that preserve the *characteristics the evaluation depends
//! on*: aspect ratio, sparsity, and degree skew. Scale factors are chosen
//! by the bench harness and recorded in EXPERIMENTS.md.
//!
//! * [`uniform_sparse`] — the paper's synthetic generator: "a sparse
//!   matrix V with d rows and w columns in s sparsity" (§6.1, §6.5).
//! * [`netflix_like`] — a ratings matrix with Netflix's shape (users ×
//!   movies ≈ 27:1) and sparsity (≈ 1.17%), values in 1..=5.
//! * [`powerlaw_graph`] — a Chung-Lu style directed graph with power-law
//!   out-degrees, returned as a square adjacency matrix; presets mirror
//!   the four graphs of Table 3 at a configurable scale.
//! * [`row_normalize`] — turn an adjacency matrix into the row-stochastic
//!   link matrix PageRank needs.
//! * [`load_with_profile`] — pair a generated matrix with its measured
//!   [`SparsityProfile`], the statistics record the planner's estimator
//!   starts from.

#![forbid(unsafe_code)]

use std::sync::Arc;

use dmac_matrix::{Block, BlockedMatrix, CscBlock, DenseBlock, Result, SplitMix64};
use dmac_stats::SparsityProfile;

/// A named graph preset mirroring Table 3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphPreset {
    /// Name used in reports.
    pub name: &'static str,
    /// Node count of the real dataset.
    pub real_nodes: usize,
    /// Edge count of the real dataset.
    pub real_edges: usize,
}

/// soc-pokec: 1,632,803 nodes / 30,622,564 edges.
pub const SOC_POKEC: GraphPreset = GraphPreset {
    name: "soc-pokec",
    real_nodes: 1_632_803,
    real_edges: 30_622_564,
};

/// cit-Patents: 3,774,768 nodes / 16,518,978 edges.
pub const CIT_PATENTS: GraphPreset = GraphPreset {
    name: "cit-Patents",
    real_nodes: 3_774_768,
    real_edges: 16_518_978,
};

/// LiveJournal: 4,847,571 nodes / 68,993,773 edges.
pub const LIVEJOURNAL: GraphPreset = GraphPreset {
    name: "LiveJournal",
    real_nodes: 4_847_571,
    real_edges: 68_993_773,
};

/// Wikipedia: 25,942,254 nodes / 601,038,301 edges.
pub const WIKIPEDIA: GraphPreset = GraphPreset {
    name: "Wikipedia",
    real_nodes: 25_942_254,
    real_edges: 601_038_301,
};

/// The four graphs of Table 3 in paper order.
pub const TABLE3_GRAPHS: [GraphPreset; 4] = [SOC_POKEC, CIT_PATENTS, LIVEJOURNAL, WIKIPEDIA];

impl GraphPreset {
    /// Scaled node/edge counts: nodes divided by `scale`, edges scaled to
    /// keep the original average degree.
    pub fn scaled(&self, scale: usize) -> (usize, usize) {
        let nodes = (self.real_nodes / scale).max(16);
        let avg_degree = self.real_edges as f64 / self.real_nodes as f64;
        let edges = (nodes as f64 * avg_degree) as usize;
        (nodes, edges)
    }
}

/// Uniform random sparse matrix: `rows × cols`, expected `sparsity`
/// fraction of non-zeros with values in `(0, 1]`.
pub fn uniform_sparse(
    rows: usize,
    cols: usize,
    sparsity: f64,
    block: usize,
    seed: u64,
) -> BlockedMatrix {
    let mut rng = SplitMix64::new(seed);
    let target = ((rows as f64) * (cols as f64) * sparsity) as usize;
    let mut triplets = Vec::with_capacity(target);
    for _ in 0..target {
        triplets.push((rng.below(rows), rng.below(cols), rng.next_f64() + 1e-9));
    }
    BlockedMatrix::from_triplets(rows, cols, block, triplets).expect("indices in range")
}

/// Dense random matrix with entries in `[0, 1)`.
pub fn dense_random(rows: usize, cols: usize, block: usize, seed: u64) -> BlockedMatrix {
    let mut rng = SplitMix64::new(seed);
    let data: Vec<f64> = (0..rows * cols).map(|_| rng.next_f64()).collect();
    BlockedMatrix::from_fn(rows, cols, block, |i, j| data[i * cols + j]).expect("block > 0")
}

/// Netflix-shaped ratings matrix: `users × movies` at Netflix's 27:1
/// aspect ratio and ≈ 1.17 % density, ratings in 1..=5.
///
/// `users` picks the scale; movies = users / 27 (min 8).
pub fn netflix_like(users: usize, block: usize, seed: u64) -> BlockedMatrix {
    let movies = (users / 27).max(8);
    let sparsity = 0.0117;
    let mut rng = SplitMix64::new(seed);
    let target = ((users as f64) * (movies as f64) * sparsity) as usize;
    let mut triplets = Vec::with_capacity(target);
    // Duplicate cells must be skipped, not summed: a user rates a movie
    // once, and summed ratings would escape the 1..=5 range.
    let mut seen = std::collections::HashSet::with_capacity(target);
    for _ in 0..target {
        let (u, m) = (rng.below(users), rng.below(movies));
        let rating = rng.range_inclusive(1, 5) as f64;
        if seen.insert((u, m)) {
            triplets.push((u, m, rating));
        }
    }
    BlockedMatrix::from_triplets(users, movies, block, triplets).expect("indices in range")
}

/// Chung-Lu style power-law directed graph as a square `nodes × nodes`
/// adjacency matrix with ≈ `edges` non-zeros. Out-degrees follow a
/// Zipf-like distribution, reproducing the skew of the paper's social/web
/// graphs (the source of the block-size deviations in §6.3).
pub fn powerlaw_graph(nodes: usize, edges: usize, block: usize, seed: u64) -> BlockedMatrix {
    let mut rng = SplitMix64::new(seed);
    // Zipf weights w_i = 1 / (i + 1)^0.5 give a heavy-tailed degree
    // distribution while keeping the expected edge count controllable.
    let weights: Vec<f64> = (0..nodes).map(|i| 1.0 / ((i + 1) as f64).sqrt()).collect();
    let total: f64 = weights.iter().sum();
    // cumulative distribution for sampling endpoints
    let mut cdf = Vec::with_capacity(nodes);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let sample = |rng: &mut SplitMix64| -> usize {
        let u: f64 = rng.next_f64();
        match cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => i.min(nodes - 1),
        }
    };
    let mut triplets = Vec::with_capacity(edges);
    for _ in 0..edges {
        let src = sample(&mut rng);
        let dst = rng.below(nodes);
        if src != dst {
            triplets.push((src, dst, 1.0));
        }
    }
    BlockedMatrix::from_triplets(nodes, nodes, block, triplets).expect("indices in range")
}

/// Row-normalise an adjacency matrix into a row-stochastic link matrix
/// (each non-empty row sums to 1). Rows with no out-edges stay zero
/// (dangling nodes).
///
/// Tile-wise: one pass over the stored items for the row sums, then every
/// tile keeps its structure and divides its values by its rows' sums. The
/// result is, tile for tile and bit for bit, what rebuilding the matrix from
/// its normalised triplets gives (the tests' reference).
pub fn row_normalize(adj: &BlockedMatrix) -> Result<BlockedMatrix> {
    let block = adj.block_size();
    // Tiles row-major, and inside a tile either walk meets a row's items
    // left to right: every row adds its items in ascending column order.
    let mut row_sums = vec![0.0f64; adj.rows()];
    for (bi, _, tile) in adj.iter_blocks() {
        let sums = &mut row_sums[bi * block..];
        match tile.as_ref() {
            Block::Dense(d) => {
                for (sum, row) in sums.iter_mut().zip(d.data().chunks(d.cols().max(1))) {
                    for v in row {
                        *sum += v;
                    }
                }
            }
            Block::Sparse(s) => {
                for (&i, &v) in s.row_indices().iter().zip(s.values()) {
                    sums[i as usize] += v;
                }
            }
        }
    }
    let blocks = adj
        .iter_blocks()
        .map(|(bi, _, tile)| {
            let sums = &row_sums[bi * block..];
            let scaled = match tile.as_ref() {
                Block::Sparse(s) => Block::Sparse(s.map_values_by_row(|i, v| v / sums[i])),
                Block::Dense(d) => Block::Dense(DenseBlock::from_fn(d.rows(), d.cols(), |i, j| {
                    let v = d.at(i, j);
                    // A zero cell is no item: it has no share of a zero sum.
                    if v != 0.0 {
                        v / sums[i]
                    } else {
                        0.0
                    }
                })),
            };
            Arc::new(as_stored_from_triplets(scaled))
        })
        .collect();
    BlockedMatrix::from_blocks(adj.rows(), adj.cols(), block, blocks)
}

/// The tile as [`BlockedMatrix::from_triplets`] stores these cells: CSC
/// without a stored zero, dense above [`dmac_matrix::block::DENSIFY_THRESHOLD`].
/// A CSC tile none of whose values is zero — every link tile of a graph — is
/// that already.
fn as_stored_from_triplets(tile: Block) -> Block {
    let cells = match tile {
        Block::Sparse(s) if !s.values().contains(&0.0) => return Block::Sparse(s).compact(),
        Block::Sparse(s) => s.to_dense(),
        Block::Dense(d) => d,
    };
    Block::Sparse(CscBlock::from_dense(&cells)).compact()
}

/// Measure a freshly generated (or loaded) matrix's sparsity statistics:
/// exact nnz plus per-block-row/-column nnz vectors. Datasets enter the
/// system through this census — the planner's estimator propagates these
/// measured profiles instead of trusting declared sparsity.
pub fn load_with_profile(m: BlockedMatrix) -> (BlockedMatrix, SparsityProfile) {
    let profile = SparsityProfile::measure(&m);
    (m, profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sparse_hits_target_density() {
        let m = uniform_sparse(200, 100, 0.05, 32, 7);
        let density = m.nnz() as f64 / (200.0 * 100.0);
        // duplicates collapse, so observed density is slightly below target
        assert!(density > 0.04 && density <= 0.05, "density {density}");
        assert_eq!(m.rows(), 200);
        assert_eq!(m.cols(), 100);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = uniform_sparse(50, 50, 0.1, 16, 9).to_dense();
        let b = uniform_sparse(50, 50, 0.1, 16, 9).to_dense();
        assert_eq!(a, b);
        let c = uniform_sparse(50, 50, 0.1, 16, 10).to_dense();
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn netflix_like_shape_and_values() {
        let m = netflix_like(540, 64, 3);
        assert_eq!(m.rows(), 540);
        assert_eq!(m.cols(), 20);
        for (_, _, v) in m.to_triplets() {
            assert!((1.0..=5.0).contains(&v));
        }
        let density = m.nnz() as f64 / (540.0 * 20.0);
        assert!(density > 0.008 && density < 0.013, "density {density}");
    }

    #[test]
    fn powerlaw_graph_is_skewed() {
        let g = powerlaw_graph(500, 5_000, 64, 11);
        assert_eq!(g.rows(), 500);
        let mut out_deg = vec![0usize; 500];
        for (i, _, _) in g.to_triplets() {
            out_deg[i] += 1;
        }
        out_deg.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = out_deg[..10].iter().sum();
        let total: usize = out_deg.iter().sum();
        assert!(
            top10 as f64 > total as f64 * 0.08,
            "top-10 nodes should carry a disproportionate share: {top10}/{total}"
        );
    }

    #[test]
    fn row_normalize_makes_rows_stochastic() {
        let g = powerlaw_graph(100, 800, 32, 5);
        let l = row_normalize(&g).unwrap();
        let mut sums = vec![0.0f64; 100];
        for (i, _, v) in l.to_triplets() {
            sums[i] += v;
        }
        for (i, s) in sums.iter().enumerate() {
            assert!(*s == 0.0 || (s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
    }

    /// The triplet formulation `row_normalize` replaced: the reference.
    fn row_normalize_by_triplets(adj: &BlockedMatrix) -> BlockedMatrix {
        let mut row_sums = vec![0.0f64; adj.rows()];
        for (i, _, v) in adj.to_triplets() {
            row_sums[i] += v;
        }
        let trips = adj
            .to_triplets()
            .into_iter()
            .map(|(i, j, v)| (i, j, v / row_sums[i]));
        BlockedMatrix::from_triplets(adj.rows(), adj.cols(), adj.block_size(), trips).unwrap()
    }

    fn assert_normalizes_like_triplets(adj: &BlockedMatrix, what: &str) {
        let got = row_normalize(adj).unwrap();
        let want = row_normalize_by_triplets(adj);
        assert_eq!(
            (got.rows(), got.cols(), got.block_size()),
            (want.rows(), want.cols(), want.block_size())
        );
        for ((bi, bj, g), (_, _, w)) in got.iter_blocks().zip(want.iter_blocks()) {
            assert!(g.bits_eq(w), "{what}: tile ({bi},{bj})\n{g:?}\n{w:?}");
            assert_eq!(g.actual_bytes(), w.actual_bytes(), "{what}: ({bi},{bj})");
        }
        assert_eq!(got.actual_bytes(), want.actual_bytes(), "{what}");
    }

    #[test]
    fn row_normalize_is_the_triplet_formulation_tile_for_tile() {
        for seed in 0..6u64 {
            let mut rng = SplitMix64::new(0xA0A0 + seed);
            // Ragged both ways on odd seeds.
            let (rows, cols, block) = [(64, 64, 16), (53, 70, 16), (40, 96, 8)][seed as usize % 3];
            // Per block-column band a density: hyper-sparse (packed CSC),
            // a quarter (full-layout CSC), and most cells (dense tiles).
            let band_density = [0.01, 0.25, 0.8];
            let mut trips = Vec::new();
            for i in 0..rows {
                // Dangling rows: every fifth has no out-edge.
                if i % 5 == 4 {
                    continue;
                }
                for j in 0..cols {
                    if rng.chance(band_density[j / block % 3]) {
                        // Weights are not 1, a few negative (a row may sum
                        // to zero or below), and a tenth of the edges come
                        // twice: `from_triplets` sums the pair.
                        let w = rng.range_inclusive(1, 9) as f64 / 4.0;
                        let w = if rng.chance(0.05) { -w } else { w };
                        trips.push((i, j, w));
                        if rng.chance(0.1) {
                            trips.push((i, j, 0.5));
                        }
                    }
                }
            }
            let adj = BlockedMatrix::from_triplets(rows, cols, block, trips).unwrap();
            let reprs: Vec<_> = adj.iter_blocks().map(|(_, _, t)| t.is_sparse()).collect();
            assert!(
                reprs.contains(&true) && reprs.contains(&false),
                "seed {seed}"
            );
            assert_normalizes_like_triplets(&adj, &format!("seed {seed}"));

            // The same cells in the representation `from_triplets` would
            // not have picked — CSC above the densify threshold, dense
            // below it — and with a stored zero where row 0 had an item.
            let flipped = adj
                .iter_blocks()
                .map(|(bi, _, t)| {
                    Arc::new(match t.as_ref() {
                        Block::Dense(d) => Block::Sparse(CscBlock::from_dense(d)),
                        Block::Sparse(s) if bi == 0 => {
                            Block::Sparse(s.map_values_by_row(|i, v| if i == 0 { 0.0 } else { v }))
                        }
                        Block::Sparse(s) => Block::Dense(s.to_dense()),
                    })
                })
                .collect();
            let flipped = BlockedMatrix::from_blocks(rows, cols, block, flipped).unwrap();
            assert_normalizes_like_triplets(&flipped, &format!("seed {seed}, flipped"));
        }
        // A real link matrix: every tile hyper-sparse, unit weights.
        let g = powerlaw_graph(300, 1_500, 32, 9);
        assert_normalizes_like_triplets(&g, "powerlaw");
        let z = BlockedMatrix::zeros(10, 7, 4).unwrap();
        assert_normalizes_like_triplets(&z, "all zero");
    }

    #[test]
    fn presets_scale_preserving_degree() {
        let (n, e) = LIVEJOURNAL.scaled(100);
        assert_eq!(n, 48_475);
        let degree = e as f64 / n as f64;
        let real_degree = LIVEJOURNAL.real_edges as f64 / LIVEJOURNAL.real_nodes as f64;
        assert!((degree - real_degree).abs() < 0.1);
        assert_eq!(TABLE3_GRAPHS.len(), 4);
    }

    #[test]
    fn load_with_profile_measures_exactly() {
        let g = powerlaw_graph(100, 800, 32, 5);
        let nnz = g.nnz() as u64;
        let (m, profile) = load_with_profile(g);
        assert_eq!(profile.nnz, nnz);
        assert_eq!(profile.rows, 100);
        assert_eq!(profile.cols, 100);
        assert_eq!(profile.block, 32);
        assert_eq!(profile.row_nnz.len(), 4);
        assert!((profile.row_nnz.iter().sum::<f64>() - nnz as f64).abs() < 1e-9);
        assert_eq!(m.nnz() as u64, nnz);
        // Dense input → dense class, full census.
        let d = dense_random(16, 16, 8, 1);
        let (_, p) = load_with_profile(d);
        assert_eq!(p.class(), dmac_stats::DensityClass::Dense);
        assert_eq!(p.nnz, 256);
    }

    #[test]
    fn dense_random_fills_range() {
        let m = dense_random(20, 20, 8, 1);
        assert!(m.nnz() > 390); // essentially all non-zero
        for (_, _, v) in m.to_triplets() {
            assert!((0.0..1.0).contains(&v));
        }
    }
}
