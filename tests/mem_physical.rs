//! A value that dies inside the step that last reads it really is gone:
//! the block memory a run holds at any moment — measured by the process-
//! wide block ledger (`dmac::matrix::mem`), not by the engine's own
//! accounting — stays within a few tiles of the resident bytes the trace
//! meters after each step. GNMF's metered peak is the multiply right
//! before the fused W-update; were that update to hold its dying inputs
//! until its output exists (the engine keeping a handle, say), the ledger
//! would climb a whole `W`-sized output (128 KiB here) above that peak,
//! past every allowance below.
//!
//! The ledger's counters are process-wide, so this file holds exactly one
//! test (an integration-test file is a process of its own; see
//! `tests/mem_ledger.rs`).

use dmac::apps::Gnmf;
use dmac::core::Session;
use dmac::lang::Program;
use dmac::matrix::mem;

#[test]
fn a_run_holds_no_more_blocks_than_its_trace_meters_resident() {
    const BLOCK: usize = 16;
    const WORKERS: usize = 4;
    const THREADS: usize = 2;
    let gnmf = Gnmf {
        rows: 2048,
        cols: 96,
        sparsity: 0.3,
        rank: 8,
        iterations: 2,
    };
    let v = dmac::data::uniform_sparse(gnmf.rows, gnmf.cols, gnmf.sparsity, BLOCK, 5);
    let mut s = Session::builder()
        .workers(WORKERS)
        .local_threads(THREADS)
        .block_size(BLOCK)
        .seed(7)
        .build();
    // The session's binding is the only copy of `V` from here on; the
    // trace meters it resident from the first step.
    s.bind("V", v).unwrap();
    let mut p = Program::new();
    gnmf.build(&mut p).unwrap();

    let before = mem::current_bytes();
    let guard = mem::PeakGuard::start();
    let report = s.run(&p).unwrap();
    let high_water = before + guard.peak_delta();

    // What may sit above the metered level, and why:
    // * the result buffer pool keeps up to 2·L dense accumulators alive
    //   between tasks;
    // * each of the L local threads holds the tile it is computing, before
    //   the step's output is metered;
    // * a CPMM stage holds every worker's partial of every output tile
    //   until it combines them (the certificate's "within-step
    //   transients"): GNMF's CPMMs are `Wᵀ V` and `Wᵀ W`, rank-high
    //   outputs, at most N partials of rank × cols.
    let tile = 8 * BLOCK * BLOCK;
    let pool = 2 * THREADS * tile;
    let in_flight = THREADS * tile;
    let partials = WORKERS * 8 * gnmf.rank * gnmf.cols.max(gnmf.rank);
    let metered = report.trace.peak_resident() as usize;
    assert!(
        high_water <= metered + pool + in_flight + partials,
        "block high-water {high_water} B over the metered peak {metered} B + pool {pool} + \
         in flight {in_flight} + CPMM partials {partials}"
    );
}
