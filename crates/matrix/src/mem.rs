//! Process-wide memory accounting for block allocations.
//!
//! DMac's evaluation (Figures 7 and 8(b)) measures per-node memory usage of
//! the local execution engine. Since a Rust reproduction cannot ask the JVM
//! for heap statistics, we track every block allocation/free through a pair
//! of atomic counters and report the *peak* live block payload. The dense
//! and CSC constructors call [`track_alloc`], the destructors call
//! [`track_free`], so the counters reflect the live working set of matrix
//! data (the quantity the paper's comparison is about — intermediate-result
//! buffers vs. in-place accumulation).
//!
//! The counters are shared by every thread of the process, so anything
//! that asserts on their exact values is tested where nothing else
//! allocates blocks: `tests/mem_ledger.rs`, one test in a process of its own.

use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Record `bytes` of newly allocated block payload.
pub fn track_alloc(bytes: usize) {
    let now = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// Record `bytes` of freed block payload.
pub fn track_free(bytes: usize) {
    let _ = CURRENT.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
        Some(c.saturating_sub(bytes))
    });
}

/// Currently live tracked bytes.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Peak live tracked bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Reset the peak to the current live level. Call before a measured region.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Scope guard measuring the peak allocation delta of a region: records the
/// live level at construction and reports the peak *increase* observed.
pub struct PeakGuard {
    baseline: usize,
}

impl PeakGuard {
    /// Start measuring: resets the peak to the current live level.
    pub fn start() -> Self {
        reset_peak();
        PeakGuard {
            baseline: current_bytes(),
        }
    }

    /// Peak bytes above the baseline observed since [`PeakGuard::start`].
    pub fn peak_delta(&self) -> usize {
        peak_bytes().saturating_sub(self.baseline)
    }
}
