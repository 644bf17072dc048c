//! Bit-identity of the four block multiply kernels behind
//! [`Block::matmul_acc`] against one naïve triple loop.
//!
//! The oracle below *is* the per-cell order contract (DESIGN "Block
//! kernels"): a result cell starts from its accumulator value and adds
//! `left[i][k] * right[k][j]` for ascending `k`, over the cells both
//! operands store — a CSC block stores its items, a dense block all its
//! cells, and dense × dense additionally skips an exact-zero left cell.
//! A kernel may tile, pack and hoist as it likes as long as every cell
//! comes out with the same bits; this is what lets the simulator, the
//! worker daemon and the local executor be compared bit for bit.

use dmac::apps::{CollaborativeFiltering, Gnmf, PageRank};
use dmac::core::Session;
use dmac::lang::Program;
use dmac::matrix::exec::{fold_tile, ResultBufferPool};
use dmac::matrix::{Block, BlockedMatrix, CscBlock, DenseBlock, SplitMix64};

/// How a sparse operand is filled.
#[derive(Clone, Copy, Debug)]
enum Fill {
    Empty,
    OneItem,
    /// Bernoulli per cell; every fourth column or so is left empty.
    Frac(f64),
    Full,
}

const FILLS: [Fill; 5] = [
    Fill::Empty,
    Fill::OneItem,
    Fill::Frac(0.05),
    Fill::Frac(0.5),
    Fill::Full,
];

const SPECIALS: [f64; 9] = [
    -0.0,
    0.0,
    5e-324,
    -f64::MIN_POSITIVE / 4.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    1e308,
    -1e308,
];

/// A finite value in [-2, 2); with `special`, one cell in eight is drawn
/// from [`SPECIALS`] instead.
fn value(rng: &mut SplitMix64, special: bool) -> f64 {
    if special && rng.below(8) == 0 {
        SPECIALS[rng.below(SPECIALS.len())]
    } else {
        rng.range_f64(-2.0, 2.0)
    }
}

/// Dense operand; one cell in eight is an exact zero so the dense × dense
/// zero skip is exercised in every case.
fn dense(rng: &mut SplitMix64, rows: usize, cols: usize, special: bool) -> DenseBlock {
    let v = (0..rows * cols)
        .map(|_| {
            if rng.below(8) == 0 {
                0.0
            } else {
                value(rng, special)
            }
        })
        .collect();
    DenseBlock::from_vec(rows, cols, v).unwrap()
}

/// Sparse operand built through `from_csc`, so stored items may be `-0.0`,
/// `0.0`, NaN or infinite (`from_triplets` would drop the zeros).
fn sparse(rng: &mut SplitMix64, rows: usize, cols: usize, fill: Fill, special: bool) -> CscBlock {
    let one = (rows * cols > 0).then(|| (rng.below(rows.max(1)), rng.below(cols.max(1))));
    let mut col_ptr = vec![0u32];
    let mut row_idx = Vec::new();
    let mut values = Vec::new();
    for j in 0..cols {
        let empty_col = matches!(fill, Fill::Frac(_)) && rng.below(4) == 0;
        for i in 0..rows {
            let keep = match fill {
                Fill::Empty => false,
                Fill::OneItem => one == Some((i, j)),
                Fill::Frac(p) => !empty_col && rng.chance(p),
                Fill::Full => true,
            };
            if keep {
                row_idx.push(i as u32);
                values.push(value(rng, special));
            }
        }
        col_ptr.push(values.len() as u32);
    }
    CscBlock::from_csc(rows, cols, col_ptr, row_idx, values).unwrap()
}

/// Row-major grid of what a block stores: `None` where a CSC block has no
/// item.
fn stored(b: &Block) -> Vec<Option<f64>> {
    match b {
        Block::Dense(d) => d.data().iter().map(|&v| Some(v)).collect(),
        Block::Sparse(s) => {
            let mut grid = vec![None; s.rows() * s.cols()];
            for (j, r) in s.columns() {
                for t in r {
                    grid[s.row_indices()[t] as usize * s.cols() + j] = Some(s.values()[t]);
                }
            }
            grid
        }
    }
}

/// The per-cell order, written out once.
fn oracle(a: &Block, b: &Block, acc: &DenseBlock) -> Vec<f64> {
    let (m, kk, n) = (a.rows(), a.cols(), b.cols());
    let dense_pair = !a.is_sparse() && !b.is_sparse();
    let (ga, gb) = (stored(a), stored(b));
    let mut out = acc.data().to_vec();
    for i in 0..m {
        for j in 0..n {
            let mut s = out[i * n + j];
            for k in 0..kk {
                let (Some(x), Some(y)) = (ga[i * kk + k], gb[k * n + j]) else {
                    continue;
                };
                if dense_pair && x == 0.0 {
                    continue;
                }
                s += x * y;
            }
            out[i * n + j] = s;
        }
    }
    out
}

/// Same bits. Which NaN an operation on two NaNs returns is not fixed by
/// IEEE 754 and Rust leaves it unspecified (the compiler may commute the
/// operands), so any NaN equals any NaN; everything else, including the
/// sign of zero, must match exactly.
fn same_bits(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

fn check(a: &Block, b: &Block, acc0: &DenseBlock, what: &str) {
    let want = oracle(a, b, acc0);
    let mut acc = acc0.clone();
    a.matmul_acc(b, &mut acc).unwrap();
    for (cell, (&got, &want)) in acc.data().iter().zip(&want).enumerate() {
        assert!(
            same_bits(got, want),
            "{what}: cell ({}, {}) is {got:e} ({:#x}), oracle {want:e} ({:#x})",
            cell / b.cols().max(1),
            cell % b.cols().max(1),
            got.to_bits(),
            want.to_bits(),
        );
    }
}

/// Row counts around every tile edge of the row-tiled dense × CSC kernel,
/// plus the block size and a ragged block.
const ROWS: [usize; 15] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 127, 128, 130];
/// Ragged inner and outer extents, including the degenerate ones.
const EXTENTS: [usize; 8] = [0, 1, 3, 8, 13, 33, 64, 130];

#[test]
fn every_representation_pair_matches_the_naive_loop() {
    let mut rng = SplitMix64::new(0x0013_D3A5_EC5C);
    for &m in &ROWS {
        for (f, &fill) in FILLS.iter().enumerate() {
            for special in [false, true] {
                let k = EXTENTS[rng.below(EXTENTS.len())];
                let n = EXTENTS[rng.below(EXTENTS.len())];
                let ad = Block::Dense(dense(&mut rng, m, k, special));
                let bd = Block::Dense(dense(&mut rng, k, n, special));
                let a_s = Block::Sparse(sparse(&mut rng, m, k, fill, special));
                let b_s = Block::Sparse(sparse(&mut rng, k, n, fill, special));
                // A pre-filled accumulator: the kernels add to it.
                let acc = dense(&mut rng, m, n, special);
                for (a, b) in [(&ad, &bd), (&a_s, &bd), (&ad, &b_s), (&a_s, &b_s)] {
                    let what = format!(
                        "{m}x{k} {} · {k}x{n} {}, fill #{f} {fill:?}, special={special}",
                        if a.is_sparse() { "csc" } else { "dense" },
                        if b.is_sparse() { "csc" } else { "dense" },
                    );
                    check(a, b, &acc, &what);
                }
            }
        }
    }
}

/// A sparse operand with items in `occupied` of its columns only, a few per
/// column — a graph's link tile. Under half the columns makes it packed.
fn hypersparse(
    rng: &mut SplitMix64,
    rows: usize,
    cols: usize,
    occupied: usize,
    special: bool,
) -> CscBlock {
    let mut holds = vec![false; cols];
    for _ in 0..occupied {
        holds[rng.below(cols)] = true;
    }
    let mut col_ptr = vec![0u32];
    let mut row_idx = Vec::new();
    let mut values = Vec::new();
    for &held in &holds {
        if held {
            let first = rng.below(rows);
            for i in first..rows.min(first + 1 + rng.below(3)) {
                row_idx.push(i as u32);
                values.push(value(rng, special));
            }
        }
        col_ptr.push(values.len() as u32);
    }
    CscBlock::from_csc(rows, cols, col_ptr, row_idx, values).unwrap()
}

/// Whether a tile keeps pointers for its non-empty columns only: it then
/// holds fewer bytes than Figure 5's `4(n + 1) + 12·nnz`.
fn is_packed(s: &CscBlock) -> bool {
    s.actual_bytes() < 4 * (s.cols() + 1) + 12 * s.nnz()
}

/// The same contract over packed operands, in every pairing that reads
/// one: the `1 × n` PageRank row, one 8-row tile, a tile plus ragged tail
/// and a full block of dense rows against a packed right operand; a packed
/// left operand against dense; and sparse × sparse with either or both
/// sides packed.
#[test]
fn packed_operands_match_the_naive_loop() {
    let mut rng = SplitMix64::new(0x9AC4_ED00);
    for &m in &[1, 8, 11, 128] {
        for &(k, n) in &[(128, 128), (33, 64), (130, 13), (16, 16)] {
            for special in [false, true] {
                let ad = Block::Dense(dense(&mut rng, m, k, special));
                let bd = Block::Dense(dense(&mut rng, k, n, special));
                let a_packed = hypersparse(&mut rng, m, k, k / 8 + 1, special);
                let b_packed = hypersparse(&mut rng, k, n, n / 8 + 1, special);
                let a_full = sparse(&mut rng, m, k, Fill::Full, special);
                let b_full = sparse(&mut rng, k, n, Fill::Full, special);
                assert!(is_packed(&a_packed) && is_packed(&b_packed));
                assert!(!is_packed(&a_full) && !is_packed(&b_full));
                let [a_packed, b_packed, a_full, b_full] =
                    [a_packed, b_packed, a_full, b_full].map(Block::Sparse);
                let acc = dense(&mut rng, m, n, special);
                for (a, b, pair) in [
                    (&ad, &b_packed, "dense · packed"),
                    (&a_packed, &bd, "packed · dense"),
                    (&a_packed, &b_packed, "packed · packed"),
                    (&a_packed, &b_full, "packed · full"),
                    (&a_full, &b_packed, "full · packed"),
                ] {
                    check(
                        a,
                        b,
                        &acc,
                        &format!("{m}x{k} · {k}x{n} {pair}, special={special}"),
                    );
                }
            }
        }
    }
}

/// The GNMF shape itself: a full 128 × 128 dense block times a 5 % CSC
/// block, folded twice into the same accumulator as CPMM and RMM do.
#[test]
fn block_sized_dense_times_csc_accumulates_bit_identically() {
    let mut rng = SplitMix64::new(0x0B10_C128);
    let a = Block::Dense(dense(&mut rng, 128, 128, false));
    let b1 = Block::Sparse(sparse(&mut rng, 128, 128, Fill::Frac(0.05), false));
    let b2 = Block::Sparse(sparse(&mut rng, 128, 128, Fill::Frac(0.05), false));
    let mut acc = DenseBlock::zeros(128, 128);
    check(&a, &b1, &acc, "first product");
    a.matmul_acc(&b1, &mut acc).unwrap();
    check(&a, &b2, &acc, "second product into the first");
}

/// `terms` folded through [`fold_tile`] on 1, 2 and 3 threads against the
/// oracle applied term by term, skipping the all-zero terms the fold
/// skips. The triangle and the row bands must both be invisible.
fn check_fold(terms: &[(Block, Block)], what: &str) {
    let (m, n) = (terms[0].0.rows(), terms[0].1.cols());
    let mut want = vec![0.0; m * n];
    for (a, b) in terms {
        if !(a.is_all_zero() || b.is_all_zero()) {
            want = oracle(a, b, &DenseBlock::from_vec(m, n, want).unwrap());
        }
    }
    let pool = ResultBufferPool::new(2);
    for threads in 1..=3 {
        let got = fold_tile(
            &pool,
            (m, n),
            threads,
            0..terms.len(),
            |k| Some(&terms[k].0),
            |k| Some(&terms[k].1),
        )
        .unwrap()
        .map_or_else(|| vec![0.0; m * n], |acc| acc.data().to_vec());
        for (cell, (&got, &want)) in got.iter().zip(&want).enumerate() {
            assert!(
                same_bits(got, want),
                "{what}, {threads} threads: cell ({}, {}) is {got:e}, oracle {want:e}",
                cell / n.max(1),
                cell % n.max(1),
            );
        }
    }
}

/// A term `(a, aᵀ)` of a Gram product, `a` a dense `m × k` block.
fn gram_term(rng: &mut SplitMix64, m: usize, k: usize, special: bool) -> (Block, Block) {
    let a = dense(rng, m, k, special);
    let t = a.transpose();
    (Block::Dense(a), Block::Dense(t))
}

/// A dense `m × m` block equal to its own transpose.
fn symmetric(rng: &mut SplitMix64, m: usize, special: bool) -> DenseBlock {
    let d = dense(rng, m, m, special);
    DenseBlock::from_fn(m, m, |i, j| d.at(i.min(j), i.max(j)))
}

/// Products of a matrix with its own transpose: two terms `(a, aᵀ)` over
/// every row count and inner extent, and a symmetric square block times
/// itself — the triangle with and without row bands. With `special`
/// values in the tiles (`0 · ∞` is NaN on one side of the diagonal and a
/// skipped term on the other) the fold must not mirror.
#[test]
fn gram_folds_match_the_naive_loop_on_every_thread_count() {
    let mut rng = SplitMix64::new(0x6A5A_7219);
    for special in [false, true] {
        for &m in &ROWS {
            for &k in &EXTENTS {
                let terms: Vec<_> = (0..2).map(|_| gram_term(&mut rng, m, k, special)).collect();
                let what = format!("{m}x{k} · its transpose, special={special}");
                check_fold(&terms, &what);
            }
            let s = Block::Dense(symmetric(&mut rng, m, special));
            let what = format!("symmetric {m}x{m} squared, special={special}");
            check_fold(&[(s.clone(), s)], &what);
        }
    }
}

/// Pairs one cell away from a transpose — the first, a middle or the last
/// cell of either tile of one term — are not symmetric products and must
/// not be mirrored.
#[test]
fn near_transpose_pairs_are_not_mirrored() {
    let mut rng = SplitMix64::new(0x0EA2_3155);
    for &m in &[2, 17, 33, 128] {
        for &k in &[1, 13, 64] {
            for side in 0..2 {
                for at in [0, m * k / 2, m * k - 1] {
                    let mut terms: Vec<_> =
                        (0..3).map(|_| gram_term(&mut rng, m, k, false)).collect();
                    let (Block::Dense(a), Block::Dense(t)) = &mut terms[1] else {
                        unreachable!("a Gram term is dense")
                    };
                    [a, t][side].data_mut()[at] += 0.5;
                    let what = format!("{m}x{k}, tile {side} of term 1 off at cell {at}");
                    check_fold(&terms, &what);
                }
            }
        }
    }
}

fn fold_bits(h: u64, m: &BlockedMatrix) -> u64 {
    m.to_dense().data().iter().fold(h, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Whole programs through `Session`, pinned to the bits the parent of the
/// kernel rewrite produced. Rank 20 at block 16 gives `Wᵀ·V` a 16-row
/// dense × CSC product (two row tiles) and a 4-row one (ragged tail);
/// PageRank runs the `1 × n` form.
///
/// A result's bits are fixed per plan, not per program: CPMM sums
/// per-worker partials, so moving a product to or from it rounds it
/// differently. So the GNMF plan's multiplication strategies are pinned
/// beside its bits, and a plan change fails on them, not on the bits.
/// The bits were re-pinned once, when the planner's coordinate descent
/// made this plan cheaper (one product CPMM → RMM1, two RMM1 → RMM2); with
/// the descent bypassed the old bits (`0x1157_454E_96A0_F857`) still came
/// out, so the kernels did not move.
///
/// Plan and bits were re-pinned again when a transpose became a view: no
/// copy of `Wᵀ` is held beside `W`, so the search's memory guard admits a
/// placement it refused (`W0` broadcast, `V` by column) and the first
/// H-update's products run RMM1 / RMM2 / RMM2, not RMM2 / CPMM / RMM2
/// (304 960 → 261 440 predicted bytes, a lower certified peak). Forced to
/// the strategies it had before, the plan still gives the bits it gave
/// before (`PARENT_GNMF_*`, checked below): views resolve to the tiles the
/// transpose steps made, and the kernels did not move.
#[test]
fn gnmf_and_pagerank_outputs_keep_their_bits() {
    let session = || {
        Session::builder()
            .workers(4)
            .local_threads(2)
            .block_size(16)
            .seed(11)
            .build()
    };

    let cfg = Gnmf {
        rows: 96,
        cols: 80,
        sparsity: 0.1,
        rank: 20,
        iterations: 3,
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 16, 5);
    let mut s = session();
    s.bind("V", v).unwrap();
    let mut p = Program::new();
    let handles = cfg.build(&mut p).unwrap();
    let plan = s.plan_only(&p).unwrap();
    let strategies: Vec<_> = (p.ops().iter())
        .filter(|op| op.kind.is_matmul())
        .map(|op| plan.strategy_of(op.index).unwrap().name())
        .collect();
    assert_eq!(strategies.join(" "), GNMF_PLAN, "GNMF plan moved");
    s.run(&p).unwrap();
    let h = fold_bits(0xCBF2_9CE4_8422_2325, &s.value(handles.w).unwrap());
    let h = fold_bits(h, &s.value(handles.h).unwrap());
    assert_eq!(h, GNMF_BITS, "GNMF W/H bits moved: {h:#x}");

    let forced = (p.ops().iter().filter(|op| op.kind.is_matmul()))
        .zip(PARENT_GNMF_PLAN.split(' '))
        .map(|(op, name)| {
            let cands = dmac::core::strategy::candidates(&op.kind);
            let i = cands.iter().position(|c| c.strategy.name() == name);
            (op.index, i.expect("a candidate strategy"))
        })
        .collect();
    let prep = s.prepare_forced(&p, &forced).unwrap();
    s.run_prepared(&prep).unwrap();
    let h = fold_bits(0xCBF2_9CE4_8422_2325, &s.value(handles.w).unwrap());
    let h = fold_bits(h, &s.value(handles.h).unwrap());
    assert_eq!(h, PARENT_GNMF_BITS, "forced GNMF W/H bits moved: {h:#x}");

    let cfg = PageRank {
        nodes: 96,
        link_sparsity: 0.1,
        damping: 0.85,
        iterations: 4,
    };
    let g = dmac::data::powerlaw_graph(cfg.nodes, 768, 16, 3);
    let mut s = session();
    let (_, handles) = cfg.run(&mut s, &g).unwrap();
    let h = fold_bits(0xCBF2_9CE4_8422_2325, &s.value(handles.rank).unwrap());
    assert_eq!(h, PAGERANK_BITS, "PageRank rank bits moved: {h:#x}");
}

/// Row bands end to end: the same program on the same workers gives the
/// same bits on 1, 2 and 3 local threads. GNMF at rank 64, block 64 folds
/// `Wᵀ·W` and `H·Hᵀ` into one 64 × 64 tile each, above the band floor, so
/// 2 and 3 threads cut it; CF's `R·Rᵀ` is one tile too, a dense Gram
/// over a dense `R` and CSC × CSC (no bands, no triangle) at 10 %.
#[test]
fn row_bands_keep_the_bits_of_one_thread() {
    let gnmf = Gnmf {
        rows: 192,
        cols: 128,
        sparsity: 0.1,
        rank: 64,
        iterations: 2,
    };
    let v = dmac::data::uniform_sparse(gnmf.rows, gnmf.cols, gnmf.sparsity, 64, 5);
    let cf = |sparsity| CollaborativeFiltering {
        items: 64,
        users: 160,
        sparsity,
    };
    for workers in [1, 2, 4] {
        let digests: Vec<[u64; 3]> = (1..=3)
            .map(|threads| {
                let session = || {
                    Session::builder()
                        .workers(workers)
                        .local_threads(threads)
                        .block_size(64)
                        .seed(11)
                        .build()
                };
                let mut s = session();
                let (_, h) = gnmf.run(&mut s, v.clone()).unwrap();
                let bits = fold_bits(0, &s.value(h.w).unwrap());
                let gnmf_bits = fold_bits(bits, &s.value(h.h).unwrap());
                let [dense_cf, sparse_cf] = [1.0, 0.1].map(|sparsity| {
                    let cfg = cf(sparsity);
                    let r = if sparsity == 1.0 {
                        dmac::data::dense_random(cfg.items, cfg.users, 64, 7)
                    } else {
                        dmac::data::uniform_sparse(cfg.items, cfg.users, sparsity, 64, 7)
                    };
                    let dense_tiles = r.iter_blocks().all(|(_, _, b)| !b.is_sparse());
                    assert_eq!(dense_tiles, sparsity == 1.0, "R's tiles at {sparsity}");
                    let mut s = session();
                    let (_, h) = cfg.run(&mut s, r).unwrap();
                    fold_bits(0, &s.value(h.predict).unwrap())
                });
                [gnmf_bits, dense_cf, sparse_cf]
            })
            .collect();
        assert!(
            digests.iter().all(|d| *d == digests[0]),
            "{workers} workers: GNMF / dense CF / sparse CF digests by thread count {digests:x?}"
        );
    }
}

const GNMF_PLAN: &str =
    "RMM1 RMM2 RMM2 RMM1 CPMM RMM1 RMM2 CPMM RMM1 RMM2 RMM1 RMM2 RMM2 CPMM RMM2 RMM1 CPMM RMM2";
const GNMF_BITS: u64 = 0x92BE_54E5_F05F_67C0;
const PARENT_GNMF_PLAN: &str =
    "RMM2 CPMM RMM2 RMM1 CPMM RMM2 RMM2 CPMM RMM1 RMM2 RMM1 RMM2 RMM2 CPMM RMM2 RMM1 CPMM RMM2";
const PARENT_GNMF_BITS: u64 = 0x1393_38E5_4384_6CCA;
const PAGERANK_BITS: u64 = 0x9B6C_0C6B_1363_9DAC;

/// Release-mode guard run by `scripts/verify.sh` (debug timings mean
/// nothing, so it is ignored by default): dense × CSC and CSC × dense do
/// the same flops on the same 128 × 128 block at 5 %, so the ratio of
/// their rates is host-independent. The strided loop this kernel replaced
/// sat at 0.09; the row-tiled one is above 0.5.
#[test]
#[ignore = "timing; run in release by scripts/verify.sh"]
fn dense_times_csc_keeps_pace_with_csc_times_dense() {
    use std::hint::black_box;
    use std::time::Instant;

    let mut rng = SplitMix64::new(7);
    let d = dense(&mut rng, 128, 128, false);
    let s = sparse(&mut rng, 128, 128, Fill::Frac(0.05), false);
    let mut acc = DenseBlock::zeros(128, 128);
    // Best of several batches: the minimum is the least disturbed one.
    let mut best_us = |f: &mut dyn FnMut(&mut DenseBlock)| {
        (0..9)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..100 {
                    f(&mut acc);
                }
                t.elapsed().as_secs_f64() * 1e4
            })
            .fold(f64::INFINITY, f64::min)
    };
    let csc_dense = best_us(&mut |acc| {
        s.matmul_dense_acc(black_box(&d), acc).unwrap();
        black_box(&acc);
    });
    let dense_csc = best_us(&mut |acc| {
        s.rmatmul_dense_acc(black_box(&d), acc).unwrap();
        black_box(&acc);
    });
    let flops = 2.0 * s.nnz() as f64 * 128.0;
    let ratio = csc_dense / dense_csc;
    println!(
        "128x128 @ 5 %: csc x dense {csc_dense:.1} us ({:.2} GFLOP/s), dense x csc {dense_csc:.1} us ({:.2} GFLOP/s), ratio {ratio:.2}",
        flops / csc_dense / 1e3,
        flops / dense_csc / 1e3,
    );
    assert!(
        ratio >= 0.25,
        "dense x csc runs at {ratio:.2} of csc x dense's rate (floor 0.25)"
    );
}

/// Release-mode guard run by `scripts/verify.sh` beside the one above: a
/// `1 × 128` row folded through 128 link-like tiles of 16 items against the
/// same row through 128 tiles at 5 % (~820 items). Same kernel, same walk,
/// fifty times the items, so the ratio of the two is host-independent —
/// and it is what a tile's empty columns cost: with a pointer per column
/// the near-empty fold sat at 0.10 of the 5 % one, with packed columns it
/// is at 0.02.
#[test]
#[ignore = "timing; run in release by scripts/verify.sh"]
fn hypersparse_row_fold_keeps_pace() {
    use std::hint::black_box;
    use std::time::Instant;

    let mut rng = SplitMix64::new(18);
    let row = dense(&mut rng, 1, 128, false);
    let link: Vec<_> = (0..128)
        .map(|_| hypersparse(&mut rng, 128, 128, 8, false))
        .collect();
    let five: Vec<_> = (0..128)
        .map(|_| sparse(&mut rng, 128, 128, Fill::Frac(0.05), false))
        .collect();
    let mut acc = DenseBlock::zeros(1, 128);
    // Best of several batches: the minimum is the least disturbed one.
    let mut best_us = |tiles: &[CscBlock]| {
        (0..9)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..20 {
                    for tile in tiles {
                        tile.rmatmul_dense_acc(black_box(&row), &mut acc).unwrap();
                    }
                    black_box(&acc);
                }
                t.elapsed().as_secs_f64() * 1e6 / 20.0
            })
            .fold(f64::INFINITY, f64::min)
    };
    let (link_us, five_us) = (best_us(&link), best_us(&five));
    let items = |tiles: &[CscBlock]| tiles.iter().map(CscBlock::nnz).sum::<usize>() / 128;
    let ratio = link_us / five_us;
    println!(
        "1x128 row through 128 tiles: {} items/tile {link_us:.1} us, {} items/tile {five_us:.1} us, ratio {ratio:.3}",
        items(&link),
        items(&five),
    );
    assert!(
        ratio <= 0.05,
        "the near-empty fold costs {ratio:.3} of the 5 % fold (ceiling 0.05)"
    );
}
