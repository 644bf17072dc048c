//! # dmac-matrix — local block-matrix kernels for DMac
//!
//! This crate implements the *local execution engine* of the DMac system
//! (SIGMOD'15, §5.3): the per-worker, block-based matrix representation and
//! the multi-threaded, memory-frugal execution flow of Figure 4.
//!
//! The pieces, bottom-up:
//!
//! * [`DenseBlock`] — a row-major dense `f64` tile.
//! * [`CscBlock`] — a sparse tile in Compressed Sparse Column format
//!   (paper Figure 5: value array, row-index array, column-start-index array).
//! * [`Block`] — the tagged union the rest of the system computes on, with
//!   the full operator set (multiply, add, sub, cell-wise multiply/divide,
//!   scalar ops, transpose, reductions).
//! * [`BlockedMatrix`] — a matrix split into an `rb × cb` grid of square
//!   blocks; the unit that is distributed across workers and computed on
//!   locally.
//! * [`exec`] — the local execution flow: a task queue drained by `L`
//!   threads, a [`exec::ResultBufferPool`] for inter-thread memory reuse, and
//!   the **In-Place** aggregation strategy (each task owns one result block
//!   and folds every contributing block product into it), compared against
//!   the naive **Buffer** strategy the paper evaluates in Figure 7.
//! * [`blocking`] — the analytical memory model (Equation 2) and the
//!   automatic block-size chooser (Equation 3: `m ≤ sqrt(MN / (L·K))`).
//! * [`mem`] — a process-wide peak-memory tracker used to reproduce the
//!   memory measurements of Figures 7 and 8(b).
//!
//! Everything here is deliberately dependency-light: plain `Vec<f64>`
//! kernels, no BLAS, so the reproduction is self-contained and portable.

#![forbid(unsafe_code)]

pub mod block;
pub mod blocked;
pub mod blocking;
pub mod csc;
pub mod dense;
pub mod error;
pub mod exec;
pub mod fused;
pub mod mem;
pub mod rng;

pub use block::Block;
pub use blocked::BlockedMatrix;
pub use blocking::{choose_block_size, BlockingConfig};
pub use csc::CscBlock;
pub use dense::DenseBlock;
pub use error::{MatrixError, Result};
pub use exec::{AggregationMode, LocalExecutor};
pub use fused::{eval_fused_block, FusedOp};
pub use rng::{random_cell, SplitMix64};

/// Relative tolerance used by the test helpers when comparing floating-point
/// matrices produced by different execution orders.
pub const TEST_EPS: f64 = 1e-9;

/// Compare two slices of `f64` with a mixed absolute/relative tolerance.
///
/// Returns the index of the first mismatch, if any. Exposed so that every
/// crate in the workspace compares numerics the same way.
pub fn approx_eq_slice(a: &[f64], b: &[f64], tol: f64) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b.iter()).position(|(x, y)| {
        let scale = x.abs().max(y.abs()).max(1.0);
        (x - y).abs() > tol * scale
    })
}
