//! A value that dies inside the step that last reads it really is gone:
//! the block memory a run holds at any moment — measured by the process-
//! wide block ledger (`dmac::matrix::mem`), not by the engine's own
//! accounting — stays within a few tiles of the resident bytes the trace
//! meters after each step. GNMF's metered peak is the multiply right
//! before the fused W-update; were that update to hold its dying inputs
//! until its output exists (the engine keeping a handle, say), the ledger
//! would climb a whole `W`-sized output (128 KiB here) above that peak,
//! past every allowance below. A warm run, with `V` already by row, holds
//! the same bound over a plan that rebuilds a copy rather than hold it.
//!
//! The ledger's counters are process-wide, so this file holds exactly one
//! test (an integration-test file is a process of its own; see
//! `tests/mem_ledger.rs`).

use dmac::apps::Gnmf;
use dmac::cluster::PartitionScheme;
use dmac::core::Session;
use dmac::lang::Program;
use dmac::matrix::{mem, Block};

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
    let mut p = Program::new();
    gnmf.build(&mut p).unwrap();

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

    // Cold, `V` bound hash-placed; then warm, in a fresh session, `V`
    // bound by row: that plan rebuilds each H-update's `H(r)` from `H(b)`
    // rather than holding it across the W-update, and a rebuilt copy must
    // be as gone as a consumed one.
    for warm in [false, true] {
        let mut s = Session::builder()
            .workers(WORKERS)
            .local_threads(THREADS)
            .block_size(BLOCK)
            .seed(7)
            .build();
        // The session's binding is the only copy of `V` from here on; the
        // trace meters it resident from the first step.
        let v = dmac::data::uniform_sparse(gnmf.rows, gnmf.cols, gnmf.sparsity, BLOCK, 5);
        if warm {
            // The ledger counts what a tile allocated and the trace the
            // bytes it holds. Cold, step 0 meters `V` twice (hash-placed
            // and by row, one set of tiles), which covers the spare
            // capacity the generator leaves; warm, nothing does, so `V`
            // is copied into tiles without it.
            let tight = v.map_blocks(Block::clone);
            drop(v);
            let by_row = s.cluster_mut().load(&tight, PartitionScheme::Row);
            s.bind_dist("V", by_row).unwrap();
        } else {
            s.bind("V", v).unwrap();
        }
        let prep = s.prepare(&p).unwrap();
        let plan = prep.plan();
        let rebuilt = (0..plan.steps.len()).any(|i| plan.rebuilds(i).is_some());
        assert_eq!(rebuilt, warm, "warm {warm}\n{}", plan.explain(&p));

        let before = mem::current_bytes();
        let guard = mem::PeakGuard::start();
        let report = s.run(&p).unwrap();
        let high_water = before + guard.peak_delta();
        let metered = report.trace.peak_resident() as usize;
        assert!(
            high_water <= metered + pool + in_flight + partials,
            "warm {warm}: block high-water {high_water} B over the metered peak {metered} B + \
             pool {pool} + in flight {in_flight} + CPMM partials {partials}"
        );
    }
}
