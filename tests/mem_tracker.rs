//! The block memory tracker (`dmac::matrix::mem`, the Figure 7 numbers)
//! must charge a reshape what `Drop` will later free.
//!
//! The counters are process-wide, so this file holds exactly one test: an
//! integration-test file is a process of its own, and with nothing else
//! allocating blocks in it the exact before/after comparison cannot race.

use dmac::matrix::{mem, DenseBlock};

/// A pooled accumulator shrunk for an edge tile and grown back inside its
/// capacity (`ResultBufferPool::acquire` → `reset_shape`) allocates
/// nothing; it used to be charged the 98 304 bytes between the two
/// lengths, so the live level drifted upward on every ragged grid.
#[test]
fn reshape_within_capacity_charges_nothing() {
    let start = mem::current_bytes();
    {
        let mut acc = DenseBlock::zeros(128, 128);
        let full = mem::current_bytes();
        assert_eq!(full - start, 128 * 128 * 8);
        acc.reset_shape(64, 64);
        assert_eq!(mem::current_bytes(), full, "a shrink frees nothing");
        acc.reset_shape(128, 128);
        assert_eq!(mem::current_bytes(), full, "regrowth inside capacity");
        assert_eq!(mem::peak_bytes(), full);
        // Real growth is charged, and by what `Drop` gives back.
        acc.reset_shape(128, 256);
        assert!(mem::current_bytes() >= start + 128 * 256 * 8);
    }
    assert_eq!(mem::current_bytes(), start, "drop returns every charge");
}
