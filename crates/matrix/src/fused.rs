//! Fused cell-wise expression kernel.
//!
//! The planner collapses chains/DAGs of scheme-aligned cell-wise operators
//! into a single plan step carrying a small post-order expression program
//! (see `dmac-core`). This module is the matrix-level half: it evaluates the
//! whole expression per block in one pass, producing exactly one output
//! block per tile instead of one intermediate per fused operator.
//!
//! Bit-for-bit equivalence with the unfused pipeline is the contract, so the
//! kernel mirrors [`crate::Block`]'s semantics precisely:
//!
//! * every cell is computed by the same `f64` operation sequence the unfused
//!   chain would apply (including the `b == 0 → 0` convention of cell_div),
//!   in the same order, and
//! * the output *representation* (dense vs. sparse) follows the same rules
//!   the chain of `Block` ops would — sparse only when every binary op on
//!   the path had two sparse operands (and was not a division), with
//!   `scale` preserving and `add_scalar` densifying unless the addend is 0.
//!   A sparse result is rebuilt with [`CscBlock::from_dense`], which stores
//!   exactly the non-zero cells — the same set (and the same values) the
//!   unfused triplet-merge path stores.

use crate::block::Block;
use crate::csc::CscBlock;
use crate::dense::DenseBlock;
use crate::error::{MatrixError, Result};
use crate::exec::ResultBufferPool;

/// One post-order instruction of a fused cell-wise expression, generic
/// over its scalar operands `S`: the plan layer keeps them symbolic (a
/// scalar expression, so a fused step can be replayed from lineage once
/// the driver's reduction values are known), and the engine resolves them
/// ([`FusedOp::map_scalar`]) to the concrete `f64` this kernel, the
/// cluster and the wire run — the default.
#[derive(Debug, Clone, PartialEq)]
pub enum FusedOp<S = f64> {
    /// Push input operand `i` (index into the leaf slice).
    Leaf(usize),
    /// Pop b, pop a, push `a + b`.
    Add,
    /// Pop b, pop a, push `a - b`.
    Sub,
    /// Pop b, pop a, push `a * b`.
    CellMul,
    /// Pop b, pop a, push `if b == 0 { 0 } else { a / b }`.
    CellDiv,
    /// Pop a, push `a * c`.
    Scale(S),
    /// Pop a, push `a + c`.
    AddScalar(S),
}

impl<S> FusedOp<S> {
    /// The same instruction with its scalar operand, if it has one, mapped
    /// through `f`.
    pub fn map_scalar<T>(&self, f: impl FnOnce(&S) -> T) -> FusedOp<T> {
        match self {
            FusedOp::Leaf(i) => FusedOp::Leaf(*i),
            FusedOp::Add => FusedOp::Add,
            FusedOp::Sub => FusedOp::Sub,
            FusedOp::CellMul => FusedOp::CellMul,
            FusedOp::CellDiv => FusedOp::CellDiv,
            FusedOp::Scale(s) => FusedOp::Scale(f(s)),
            FusedOp::AddScalar(s) => FusedOp::AddScalar(f(s)),
        }
    }

    /// Stack effect: values popped and pushed.
    fn arity(&self) -> (usize, usize) {
        match self {
            FusedOp::Leaf(_) => (0, 1),
            FusedOp::Add | FusedOp::Sub | FusedOp::CellMul | FusedOp::CellDiv => (2, 1),
            FusedOp::Scale(_) | FusedOp::AddScalar(_) => (1, 1),
        }
    }
}

/// Check a program is well-formed: stack never underflows, every leaf index
/// is in range, and exactly one value remains. Returns the maximum stack
/// depth reached.
pub fn validate_program(prog: &[FusedOp], n_leaves: usize) -> Result<usize> {
    let mut depth = 0usize;
    let mut max_depth = 0usize;
    for op in prog {
        if let FusedOp::Leaf(i) = op {
            if *i >= n_leaves {
                return Err(MatrixError::MalformedSparse(format!(
                    "fused program leaf {i} out of range ({n_leaves} operands)"
                )));
            }
        }
        let (pops, pushes) = op.arity();
        if depth < pops {
            return Err(MatrixError::MalformedSparse(
                "fused program stack underflow".into(),
            ));
        }
        depth = depth - pops + pushes;
        max_depth = max_depth.max(depth);
    }
    if depth != 1 {
        return Err(MatrixError::MalformedSparse(format!(
            "fused program leaves {depth} values on the stack (expected 1)"
        )));
    }
    Ok(max_depth)
}

/// One chunk-sized value on the evaluation stack: either a borrowed slice
/// of a leaf operand (no copy) or a recycled scratch buffer.
enum Slot<'a> {
    /// A view into a leaf's chunk.
    Borrowed(&'a [f64]),
    /// A scratch buffer holding an intermediate chunk.
    Owned(Vec<f64>),
}

impl Slot<'_> {
    fn as_slice(&self) -> &[f64] {
        match self {
            Slot::Borrowed(s) => s,
            Slot::Owned(v) => v,
        }
    }
}

/// Pop two chunks, push `f(a, b)` element-wise. Writes in place into an
/// operand's scratch buffer when one exists; only a leaf/leaf pair draws a
/// buffer from the free list.
fn apply_binary<'a>(
    f: impl Fn(f64, f64) -> f64,
    stack: &mut Vec<Slot<'a>>,
    free: &mut Vec<Vec<f64>>,
) {
    let b = stack.pop().expect("validated program");
    let a = stack.pop().expect("validated program");
    let slot = match (a, b) {
        (Slot::Owned(mut av), b) => {
            for (x, &y) in av.iter_mut().zip(b.as_slice()) {
                *x = f(*x, y);
            }
            if let Slot::Owned(bv) = b {
                free.push(bv);
            }
            Slot::Owned(av)
        }
        (Slot::Borrowed(asl), Slot::Owned(mut bv)) => {
            for (y, &x) in bv.iter_mut().zip(asl) {
                *y = f(x, *y);
            }
            Slot::Owned(bv)
        }
        (Slot::Borrowed(asl), Slot::Borrowed(bsl)) => {
            let mut buf = free.pop().expect("stack depth bounds the buffers");
            buf.clear();
            buf.extend(asl.iter().zip(bsl).map(|(&x, &y)| f(x, y)));
            Slot::Owned(buf)
        }
    };
    stack.push(slot);
}

/// Replace the top chunk with `f(a)` element-wise.
fn apply_unary<'a>(f: impl Fn(f64) -> f64, stack: &mut Vec<Slot<'a>>, free: &mut Vec<Vec<f64>>) {
    let a = stack.pop().expect("validated program");
    let slot = match a {
        Slot::Owned(mut av) => {
            for x in av.iter_mut() {
                *x = f(*x);
            }
            Slot::Owned(av)
        }
        Slot::Borrowed(asl) => {
            let mut buf = free.pop().expect("stack depth bounds the buffers");
            buf.clear();
            buf.extend(asl.iter().map(|&x| f(x)));
            Slot::Owned(buf)
        }
    };
    stack.push(slot);
}

/// Abstract interpretation of the output representation: replays the
/// representation rules of [`Block::add`]/[`Block::cell_div`]/etc. over the
/// program so the fused result is stored exactly like the unfused chain's.
fn result_is_sparse(prog: &[FusedOp], leaves: &[&Block]) -> bool {
    let mut stack: Vec<bool> = Vec::with_capacity(4);
    for op in prog {
        match op {
            FusedOp::Leaf(i) => stack.push(leaves[*i].is_sparse()),
            FusedOp::Add | FusedOp::Sub | FusedOp::CellMul => {
                let b = stack.pop().unwrap_or(false);
                let a = stack.pop().unwrap_or(false);
                stack.push(a && b);
            }
            FusedOp::CellDiv => {
                stack.pop();
                stack.pop();
                stack.push(false);
            }
            FusedOp::Scale(_) => {} // keeps representation
            FusedOp::AddScalar(c) => {
                if *c != 0.0 {
                    stack.pop();
                    stack.push(false);
                }
            }
        }
    }
    stack.pop().unwrap_or(false)
}

/// A program that is one operator over leaves *is* that [`Block`] method:
/// the sparse/sparse O(nnz) merge, no densified operand, no pool draw.
/// `None` for anything longer. The choice reads the program's shape only
/// (never the data), and the planner fuses no fewer than two operators, so
/// a fused chain never lands here; a lone `add` or `scale` always does.
fn single_op(prog: &[FusedOp], leaves: &[&Block]) -> Option<Result<Block>> {
    match *prog {
        [FusedOp::Leaf(a), FusedOp::Leaf(b), ref op] => {
            let (a, b) = (leaves[a], leaves[b]);
            match op {
                FusedOp::Add => Some(a.add(b)),
                FusedOp::Sub => Some(a.sub(b)),
                FusedOp::CellMul => Some(a.cell_mul(b)),
                FusedOp::CellDiv => Some(a.cell_div(b)),
                _ => None,
            }
        }
        [FusedOp::Leaf(a), FusedOp::Scale(c)] => Some(Ok(leaves[a].scale(c))),
        [FusedOp::Leaf(a), FusedOp::AddScalar(c)] => Some(Ok(leaves[a].add_scalar(c))),
        _ => None,
    }
}

/// Evaluate a cell-wise program over one tile: the only per-tile kernel
/// of a scheme-aligned stage, on the simulator and on `dmac-workerd`.
///
/// All leaves must share the same shape. A single operator runs as its
/// [`Block`] method (`single_op`); a longer program runs chunked, its one
/// output allocation drawn from `pool` — when the result representation is
/// sparse the dense scratch is converted and released back to the pool.
pub fn eval_fused_block(
    prog: &[FusedOp],
    leaves: &[&Block],
    pool: &ResultBufferPool,
) -> Result<Block> {
    let max_depth = validate_program(prog, leaves.len())?;
    let (rows, cols) = match leaves.first() {
        Some(b) => (b.rows(), b.cols()),
        None => {
            return Err(MatrixError::MalformedSparse(
                "fused program has no operands".into(),
            ))
        }
    };
    for b in leaves {
        if b.rows() != rows || b.cols() != cols {
            return Err(MatrixError::DimensionMismatch {
                op: "fused",
                left: (rows, cols),
                right: (b.rows(), b.cols()),
            });
        }
    }
    if let Some(out) = single_op(prog, leaves) {
        return out;
    }

    // Densify sparse leaves once per tile (the fallback path); dense leaves
    // are borrowed directly so the dense/dense fast path does zero copies.
    let densified: Vec<Option<DenseBlock>> = leaves
        .iter()
        .map(|b| match b {
            Block::Dense(_) => None,
            Block::Sparse(s) => Some(s.to_dense()),
        })
        .collect();
    let views: Vec<&[f64]> = leaves
        .iter()
        .zip(densified.iter())
        .map(|(b, d)| match (b, d) {
            (Block::Dense(d), _) => d.data(),
            (_, Some(d)) => d.data(),
            _ => unreachable!("sparse leaf was densified above"),
        })
        .collect();

    let mut acc = pool.acquire(rows, cols);
    let total = rows * cols;
    let out = acc.data_mut();
    // One pass over the tile in L1-sized chunks: per chunk the program runs
    // over slices, so every op is a tight autovectorizable loop and the
    // interpreter dispatch cost is amortized over CHUNK cells. Leaves are
    // pushed as borrowed slices (zero copies); the first op over a leaf
    // pair writes into one of `max_depth` recycled chunk buffers — a few
    // KiB total — so no intermediate tile is ever materialized. Each cell
    // still sees exactly the per-element op sequence of the unfused chain.
    const CHUNK: usize = 512;
    let mut free: Vec<Vec<f64>> = (0..max_depth).map(|_| Vec::with_capacity(CHUNK)).collect();
    let mut stack: Vec<Slot<'_>> = Vec::with_capacity(max_depth);
    let mut start = 0usize;
    while start < total {
        let len = CHUNK.min(total - start);
        for op in prog {
            match op {
                FusedOp::Leaf(i) => stack.push(Slot::Borrowed(&views[*i][start..start + len])),
                FusedOp::Add => apply_binary(|a, b| a + b, &mut stack, &mut free),
                FusedOp::Sub => apply_binary(|a, b| a - b, &mut stack, &mut free),
                FusedOp::CellMul => apply_binary(|a, b| a * b, &mut stack, &mut free),
                FusedOp::CellDiv => apply_binary(
                    |a, b| if b == 0.0 { 0.0 } else { a / b },
                    &mut stack,
                    &mut free,
                ),
                FusedOp::Scale(c) => apply_unary(|a| a * c, &mut stack, &mut free),
                FusedOp::AddScalar(c) => apply_unary(|a| a + c, &mut stack, &mut free),
            }
        }
        match stack.pop().expect("validated program") {
            Slot::Borrowed(s) => out[start..start + len].copy_from_slice(s),
            Slot::Owned(buf) => {
                out[start..start + len].copy_from_slice(&buf);
                free.push(buf);
            }
        }
        start += len;
    }

    if result_is_sparse(prog, leaves) {
        let sparse = CscBlock::from_dense(&acc);
        pool.release(acc);
        Ok(Block::Sparse(sparse))
    } else {
        Ok(Block::Dense(acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: usize, cols: usize, v: &[f64]) -> Block {
        Block::Dense(DenseBlock::from_vec(rows, cols, v.to_vec()).unwrap())
    }

    fn sparse(rows: usize, cols: usize, t: &[(usize, usize, f64)]) -> Block {
        Block::Sparse(CscBlock::from_triplets(rows, cols, t.to_vec()).unwrap())
    }

    #[test]
    fn validates_programs() {
        assert!(validate_program(&[FusedOp::Add], 0).is_err());
        assert!(validate_program(&[FusedOp::Leaf(0)], 0).is_err());
        assert!(validate_program(&[FusedOp::Leaf(0), FusedOp::Leaf(0)], 1).is_err());
        let depth =
            validate_program(&[FusedOp::Leaf(0), FusedOp::Leaf(0), FusedOp::Add], 1).unwrap();
        assert_eq!(depth, 2);
    }

    #[test]
    fn gnmf_style_mul_div_matches_unfused() {
        let pool = ResultBufferPool::new(2);
        let w = dense(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let num = dense(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let den = dense(2, 2, &[2.0, 0.0, 4.0, 8.0]);
        // w .* num ./ den
        let prog = [
            FusedOp::Leaf(0),
            FusedOp::Leaf(1),
            FusedOp::CellMul,
            FusedOp::Leaf(2),
            FusedOp::CellDiv,
        ];
        let fused = eval_fused_block(&prog, &[&w, &num, &den], &pool).unwrap();
        let unfused = w.cell_mul(&num).unwrap().cell_div(&den).unwrap();
        assert_eq!(fused, unfused);
    }

    #[test]
    fn sparse_chain_keeps_sparse_representation() {
        let pool = ResultBufferPool::new(2);
        let a = sparse(3, 3, &[(0, 0, 2.0), (2, 1, -1.0)]);
        let b = sparse(3, 3, &[(0, 0, -2.0), (1, 2, 5.0)]);
        // (a + b) scaled: sparse add of sparse operands stays sparse, and the
        // cancelled (0,0) cell must be dropped from storage like the
        // triplet-merge path drops it.
        let prog = [
            FusedOp::Leaf(0),
            FusedOp::Leaf(1),
            FusedOp::Add,
            FusedOp::Scale(2.0),
        ];
        let fused = eval_fused_block(&prog, &[&a, &b], &pool).unwrap();
        let unfused = a.add(&b).unwrap().scale(2.0);
        assert!(fused.is_sparse());
        assert_eq!(fused, unfused);
    }

    #[test]
    fn cell_div_and_add_scalar_densify() {
        let pool = ResultBufferPool::new(2);
        let a = sparse(2, 2, &[(0, 0, 4.0)]);
        let b = sparse(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]);
        let prog = [FusedOp::Leaf(0), FusedOp::Leaf(1), FusedOp::CellDiv];
        let fused = eval_fused_block(&prog, &[&a, &b], &pool).unwrap();
        assert!(!fused.is_sparse());
        assert_eq!(fused, a.cell_div(&b).unwrap());

        let shift = [FusedOp::Leaf(0), FusedOp::AddScalar(1.0)];
        let fused = eval_fused_block(&shift, &[&a], &pool).unwrap();
        assert!(!fused.is_sparse());
        assert_eq!(fused, a.add_scalar(1.0));
        // addend 0 keeps representation, like Block::add_scalar's clone
        let keep = [FusedOp::Leaf(0), FusedOp::AddScalar(0.0)];
        assert!(eval_fused_block(&keep, &[&a], &pool).unwrap().is_sparse());
    }

    #[test]
    fn mixed_dense_sparse_falls_back_correctly() {
        let pool = ResultBufferPool::new(2);
        let a = dense(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = sparse(2, 3, &[(0, 1, 2.0), (1, 0, -4.0)]);
        let prog = [
            FusedOp::Leaf(0),
            FusedOp::Scale(0.5),
            FusedOp::Leaf(1),
            FusedOp::Sub,
        ];
        let fused = eval_fused_block(&prog, &[&a, &b], &pool).unwrap();
        let unfused = a.scale(0.5).sub(&b).unwrap();
        assert_eq!(fused, unfused);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let pool = ResultBufferPool::new(1);
        let a = dense(2, 2, &[1.0; 4]);
        let b = dense(2, 3, &[1.0; 6]);
        let prog = [FusedOp::Leaf(0), FusedOp::Leaf(1), FusedOp::Add];
        assert!(eval_fused_block(&prog, &[&a, &b], &pool).is_err());
    }

    #[test]
    fn pool_is_reused_across_tiles() {
        let pool = ResultBufferPool::new(2);
        let a = dense(4, 4, &[1.0; 16]);
        let prog = [
            FusedOp::Leaf(0),
            FusedOp::Scale(3.0),
            FusedOp::AddScalar(1.0),
        ];
        for _ in 0..4 {
            let out = eval_fused_block(&prog, &[&a], &pool).unwrap();
            match out {
                Block::Dense(d) => pool.release(d),
                Block::Sparse(_) => unreachable!("dense leaf, scale keeps dense"),
            }
        }
        assert!(pool.stats().reused >= 3);
        // One operator is the `Block` method: nothing drawn from the pool.
        let before = pool.stats();
        let out = eval_fused_block(&prog[..2], &[&a], &pool).unwrap();
        assert_eq!(out, a.scale(3.0));
        assert_eq!(pool.stats(), before);
    }
}
