//! The block memory ledger (`dmac::matrix::mem`, the Figure 7 numbers)
//! balances: every block is charged once, by what `Drop` gives back, however
//! it came to be — built, cloned, mapped, transposed.
//!
//! The counters are process-wide, so this file holds exactly one test: an
//! integration-test file is a process of its own, and with nothing else
//! allocating blocks in it the exact comparisons cannot race. Everything
//! that reads the counters exactly lives here for that reason, the guard
//! and the saturating floor included.

use dmac::matrix::exec::combine_partials;
use dmac::matrix::{mem, Block, BlockedMatrix, CscBlock, DenseBlock};

#[test]
fn every_block_charged_is_given_back() {
    let start = mem::current_bytes();

    // A guard reads the peak above its starting level; dropping the blocks
    // lowers the live level and leaves the peak.
    let guard = mem::PeakGuard::start();
    {
        let _a = DenseBlock::zeros(100, 100);
        let _b = DenseBlock::zeros(10, 10);
        assert_eq!(guard.peak_delta(), 80_800);
    }
    assert_eq!(guard.peak_delta(), 80_800);
    assert_eq!(mem::current_bytes(), start);

    {
        let dense = DenseBlock::from_fn(16, 24, |i, j| (i * 24 + j) as f64 - 7.0);
        // Every column occupied: the full layout. Two of 24: packed.
        let full = CscBlock::from_dense(&dense);
        let packed =
            CscBlock::from_triplets(16, 24, vec![(3, 5, 1.0), (9, 5, 2.0), (0, 20, -1.0)]).unwrap();
        assert!(full.actual_bytes() > 4 * 25 && packed.actual_bytes() == 4 * 5 + 12 * 3);
        for b in [
            Block::Dense(dense),
            Block::Sparse(full),
            Block::Sparse(packed),
            Block::zeros(16, 24),
        ] {
            let before = mem::current_bytes();
            let copies = [
                b.clone(),
                b.map(|v| v * 2.0),
                b.map(|_| 0.0),
                b.scale(0.5),
                b.add_scalar(0.0),
                b.transpose(),
                b.transpose().transpose(),
                b.add(&b).unwrap(),
                b.cell_mul(&b).unwrap(),
                Block::Dense(b.to_dense()),
                Block::Sparse(CscBlock::from_dense(&b.to_dense())),
                b.clone().compact(),
                combine_partials((16, 24), [&b.to_dense(), &b.to_dense()]).unwrap(),
            ];
            let held: usize = copies.iter().map(Block::actual_bytes).sum();
            assert!(
                mem::current_bytes() - before >= held,
                "a live block is a charged block"
            );
            drop(copies);
            assert_eq!(mem::current_bytes(), before, "and a dropped one is not");
        }
    }
    assert_eq!(mem::current_bytes(), start);

    // A matrix of hyper-sparse tiles beside a dense block-row, through
    // `row_normalize`: mapped by row where the structure holds, rebuilt
    // where a value came out zero or the tile was dense.
    {
        let sparse = (0..64).map(|t| (16 + t * 5 % 48, t * 11 % 64, 1.0 + t as f64));
        let dense = (0..16 * 64).map(|c| (c / 64, c % 64, 1.0));
        let m = BlockedMatrix::from_triplets(64, 64, 16, sparse.chain(dense)).unwrap();
        assert!(!m.block_at(0, 0).is_sparse() && m.block_at(1, 0).is_sparse());
        let back = BlockedMatrix::from_triplets(64, 64, 16, m.to_triplets()).unwrap();
        assert_eq!(m.to_triplets(), back.to_triplets());
        let link = dmac::data::row_normalize(&m).unwrap();
        assert_eq!(link.nnz(), m.nnz());
        let _zeroed = dmac::data::row_normalize(&m.scale(0.0)).unwrap();
        let _scaled = link.scale(3.0).transpose();
    }
    assert_eq!(
        mem::current_bytes(),
        start,
        "drop returns every charge, no more and no less"
    );

    // Freeing more than is tracked stops at zero instead of wrapping.
    mem::track_free(usize::MAX);
    assert_eq!(mem::current_bytes(), 0);
}
