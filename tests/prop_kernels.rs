//! Property-based tests of the kernel layer: algebraic identities that
//! must hold for arbitrary matrices regardless of representation,
//! blocking, or execution strategy.
//!
//! Cases are drawn from the in-tree [`SplitMix64`] generator with fixed
//! seeds, so every run checks the same (reproducible) corpus and a failing
//! case can be named by its loop index.

use dmac::matrix::{
    AggregationMode, BlockedMatrix, CscBlock, DenseBlock, LocalExecutor, SplitMix64,
};

const CASES: usize = 64;
const SEED: u64 = 0x6B45_52E7_11D0_37C1;

/// A small dense matrix with entries in [-10, 10).
fn dense(rng: &mut SplitMix64, rows: usize, cols: usize) -> DenseBlock {
    let v: Vec<f64> = (0..rows * cols)
        .map(|_| rng.range_f64(-10.0, 10.0))
        .collect();
    DenseBlock::from_vec(rows, cols, v).unwrap()
}

/// A sparse triplet list over the given shape (duplicates allowed where
/// the consumer allows them; `BlockedMatrix::from_triplets` sums).
fn triplets(rng: &mut SplitMix64, rows: usize, cols: usize) -> Vec<(usize, usize, f64)> {
    let count = rng.below((rows * cols / 2).max(1) + 1);
    (0..count)
        .map(|_| (rng.below(rows), rng.below(cols), rng.range_f64(-5.0, 5.0)))
        .collect()
}

/// Unique-position triplets (for `CscBlock::from_triplets`, which rejects
/// duplicates).
fn unique_triplets(rng: &mut SplitMix64, rows: usize, cols: usize) -> Vec<(usize, usize, f64)> {
    let mut seen = std::collections::HashSet::new();
    triplets(rng, rows, cols)
        .into_iter()
        .filter(|&(i, j, _)| seen.insert((i, j)))
        .collect()
}

/// CSC round-trip: dense -> CSC -> dense is the identity.
#[test]
fn csc_round_trip() {
    let mut rng = SplitMix64::new(SEED ^ 1);
    for _ in 0..CASES {
        let d = dense(&mut rng, 7, 9);
        let csc = CscBlock::from_dense(&d);
        assert_eq!(csc.to_dense(), d);
    }
}

/// Double transpose is the identity for CSC blocks.
#[test]
fn csc_double_transpose() {
    let mut rng = SplitMix64::new(SEED ^ 2);
    for _ in 0..CASES {
        let b = CscBlock::from_triplets(8, 6, unique_triplets(&mut rng, 8, 6)).unwrap();
        assert_eq!(b.transpose().transpose(), b);
    }
}

/// Blocked transpose equals dense transpose for any block size.
#[test]
fn blocked_transpose_matches() {
    let mut rng = SplitMix64::new(SEED ^ 3);
    for _ in 0..CASES {
        let d = dense(&mut rng, 9, 7);
        let block = rng.range_inclusive(1, 9);
        let m = BlockedMatrix::from_dense(d.clone(), block).unwrap();
        assert_eq!(m.transpose().to_dense(), d.transpose());
    }
    // Block-sized and ragged shapes: several tiles of the cache-blocked
    // dense transpose plus a partial one on each edge, against the plain
    // index swap.
    for (rows, cols) in [(128, 128), (130, 67)] {
        let d = dense(&mut rng, rows, cols);
        let t = d.transpose();
        assert_eq!((t.rows(), t.cols()), (cols, rows));
        for i in 0..rows {
            for j in 0..cols {
                assert_eq!(t.at(j, i).to_bits(), d.at(i, j).to_bits());
            }
        }
        let m = BlockedMatrix::from_dense(d, 128).unwrap();
        assert_eq!(m.transpose().to_dense(), t);
    }
}

/// (A·B)ᵀ = Bᵀ·Aᵀ through the blocked kernels.
#[test]
fn transpose_of_product() {
    let mut rng = SplitMix64::new(SEED ^ 4);
    for _ in 0..CASES {
        let a = dense(&mut rng, 5, 6);
        let b = dense(&mut rng, 6, 4);
        let block = rng.range_inclusive(2, 5);
        let ma = BlockedMatrix::from_dense(a, block).unwrap();
        let mb = BlockedMatrix::from_dense(b, block).unwrap();
        let lhs = ma.matmul_reference(&mb).unwrap().transpose();
        let rhs = mb.transpose().matmul_reference(&ma.transpose()).unwrap();
        assert!(
            dmac::matrix::approx_eq_slice(lhs.to_dense().data(), rhs.to_dense().data(), 1e-9)
                .is_none()
        );
    }
}

/// Associativity within tolerance: (A·B)·C = A·(B·C).
#[test]
fn matmul_associativity() {
    let mut rng = SplitMix64::new(SEED ^ 5);
    for _ in 0..CASES {
        let a = BlockedMatrix::from_dense(dense(&mut rng, 4, 5), 2).unwrap();
        let b = BlockedMatrix::from_dense(dense(&mut rng, 5, 3), 2).unwrap();
        let c = BlockedMatrix::from_dense(dense(&mut rng, 3, 6), 2).unwrap();
        let lhs = a
            .matmul_reference(&b)
            .unwrap()
            .matmul_reference(&c)
            .unwrap();
        let rhs = a
            .matmul_reference(&b.matmul_reference(&c).unwrap())
            .unwrap();
        assert!(
            dmac::matrix::approx_eq_slice(lhs.to_dense().data(), rhs.to_dense().data(), 1e-9)
                .is_none()
        );
    }
}

/// Distributivity: A·(B + C) = A·B + A·C.
#[test]
fn matmul_distributes_over_add() {
    let mut rng = SplitMix64::new(SEED ^ 6);
    for _ in 0..CASES {
        let a = BlockedMatrix::from_dense(dense(&mut rng, 4, 5), 3).unwrap();
        let b = BlockedMatrix::from_dense(dense(&mut rng, 5, 4), 3).unwrap();
        let c = BlockedMatrix::from_dense(dense(&mut rng, 5, 4), 3).unwrap();
        let lhs = a.matmul_reference(&b.add(&c).unwrap()).unwrap();
        let rhs = a
            .matmul_reference(&b)
            .unwrap()
            .add(&a.matmul_reference(&c).unwrap())
            .unwrap();
        assert!(
            dmac::matrix::approx_eq_slice(lhs.to_dense().data(), rhs.to_dense().data(), 1e-9)
                .is_none()
        );
    }
}

/// Both aggregation modes and any thread count produce the reference
/// product (summation order within each result cell path differs, so
/// allow tiny tolerance).
#[test]
fn executors_match_reference() {
    let mut rng = SplitMix64::new(SEED ^ 7);
    for _ in 0..CASES {
        let ma = BlockedMatrix::from_dense(dense(&mut rng, 6, 8), 3).unwrap();
        let mb = BlockedMatrix::from_dense(dense(&mut rng, 8, 5), 3).unwrap();
        let threads = rng.range_inclusive(1, 4);
        let expect = ma.matmul_reference(&mb).unwrap().to_dense();
        for mode in [AggregationMode::InPlace, AggregationMode::Buffer] {
            let ex = LocalExecutor::new(threads, mode);
            let got = ex.matmul(&ma, &mb).unwrap().to_dense();
            assert!(dmac::matrix::approx_eq_slice(got.data(), expect.data(), 1e-9).is_none());
        }
    }
}

/// Sparse blocked matrices behave identically to their dense image under
/// every cell-wise operator.
#[test]
fn sparse_cellwise_matches_dense() {
    let mut rng = SplitMix64::new(SEED ^ 8);
    for _ in 0..CASES {
        let block = rng.range_inclusive(2, 4);
        let a = BlockedMatrix::from_triplets(6, 6, block, triplets(&mut rng, 6, 6)).unwrap();
        let b = BlockedMatrix::from_triplets(6, 6, block, triplets(&mut rng, 6, 6)).unwrap();
        let (da, db) = (a.to_dense(), b.to_dense());
        assert_eq!(a.add(&b).unwrap().to_dense(), da.add(&db).unwrap());
        assert_eq!(a.sub(&b).unwrap().to_dense(), da.sub(&db).unwrap());
        assert_eq!(
            a.cell_mul(&b).unwrap().to_dense(),
            da.cell_mul(&db).unwrap()
        );
        assert_eq!(
            a.cell_div(&b).unwrap().to_dense(),
            da.cell_div(&db).unwrap()
        );
    }
}

/// Reblocking never changes the matrix.
#[test]
fn reblock_preserves_values() {
    let mut rng = SplitMix64::new(SEED ^ 9);
    for _ in 0..CASES {
        let b1 = rng.range_inclusive(1, 11);
        let b2 = rng.range_inclusive(1, 11);
        let m = BlockedMatrix::from_triplets(10, 8, b1, triplets(&mut rng, 10, 8)).unwrap();
        let r = m.reblock(b2).unwrap();
        assert_eq!(r.block_size(), b2);
        assert_eq!(r.to_dense(), m.to_dense());
    }
}

/// The worst-case sparsity estimator is a true upper bound: the actual
/// density of a cell-wise result never exceeds min(sa + sb, 1), and a
/// product's density never exceeds 1.
#[test]
fn sparsity_estimate_is_upper_bound() {
    let mut rng = SplitMix64::new(SEED ^ 10);
    for _ in 0..CASES {
        let a = BlockedMatrix::from_triplets(8, 8, 3, triplets(&mut rng, 8, 8)).unwrap();
        let b = BlockedMatrix::from_triplets(8, 8, 3, triplets(&mut rng, 8, 8)).unwrap();
        let cells = 64.0;
        let (sa, sb) = (a.nnz() as f64 / cells, b.nnz() as f64 / cells);
        let sum = a.add(&b).unwrap();
        assert!(sum.nnz() as f64 / cells <= (sa + sb).min(1.0) + 1e-12);
        let prod = a.matmul_reference(&b).unwrap();
        assert!(prod.nnz() as f64 / cells <= 1.0);
    }
}
