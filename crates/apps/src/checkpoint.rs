//! Shared plumbing for the checkpointed iterative drivers.
//!
//! The unrolled programs in [`crate::gnmf`] and [`crate::pagerank`] run a
//! whole algorithm as one plan. Their checkpointed siblings instead run
//! *one iteration per program*, store the evolving state under stable
//! names, and publish a durable snapshot of the store at every phase
//! boundary ([`dmac_core::Session::checkpoint`]). When the process dies —
//! or a deterministic crash is injected at one of the disk tier's
//! file-system calls ([`dmac_cluster::FaultPlan::crash`]) — a restarted
//! driver recovers the latest valid snapshot from disk and resumes from the
//! phase it recorded, instead of replaying the full lineage from
//! iteration 0.
//!
//! The contract both drivers uphold: a crashed-and-resumed run produces
//! **bit-for-bit** the same final state as an uninterrupted run, because
//! the on-disk codec preserves values and per-worker placement exactly
//! and the engine is deterministic given identical inputs and schemes.

use dmac_core::{Result, Session};

/// The loop behind `Gnmf::run_checkpointed` and `PageRank::run_checkpointed`:
/// resume at the recovered snapshot's phase if all of `names` came back with
/// it, else start `fresh` (bind the inputs, run the init program: phase 0);
/// then one `step` and one snapshot of `names` per remaining iteration.
pub(crate) fn run_checkpointed(
    session: &mut Session,
    names: &[String],
    iterations: usize,
    fresh: impl FnOnce(&mut Session) -> Result<()>,
    step: &dmac_lang::Program,
) -> Result<CheckpointedRun> {
    let store = session.shared_store().clone();
    let resumable = |phase| phase <= iterations && names.iter().all(|n| store.contains(n));
    let start = match store.latest_snapshot() {
        Some((_, phase)) if resumable(phase as usize) => phase as usize,
        _ => {
            fresh(session)?;
            session.checkpoint(names, 0)?;
            0
        }
    };
    for i in start..iterations {
        session.run(step)?;
        session.checkpoint(names, (i + 1) as u64)?;
    }
    let (final_snapshot, _) = store.latest_snapshot().unwrap_or((0, 0));
    Ok(CheckpointedRun {
        resumed_from: start,
        ran_iterations: iterations - start,
        final_snapshot,
    })
}

/// Outcome of a checkpointed driver run (see `Gnmf::run_checkpointed`
/// and `PageRank::run_checkpointed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointedRun {
    /// Completed iterations found in the recovered snapshot; `0` means
    /// the driver started (or restarted) from scratch.
    pub resumed_from: usize,
    /// Iterations this process actually executed
    /// (`total - resumed_from`).
    pub ran_iterations: usize,
    /// Snapshot sequence number of the final published checkpoint.
    pub final_snapshot: u64,
}

impl CheckpointedRun {
    /// Did this run skip work thanks to a recovered snapshot?
    pub fn resumed(&self) -> bool {
        self.resumed_from > 0
    }
}
