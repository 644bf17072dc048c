//! The dependency-oriented cost model (paper §4.1).
//!
//! For an input event `In(A, p, op)`, three situations matter:
//!
//! 1. a Non-Communication dependency satisfies it → cost `0`;
//! 2. a Partition / Transpose-Partition dependency is needed → cost `|A|`;
//! 3. a Broadcast / Transpose-Broadcast dependency is needed → cost
//!    `N·|A|`, `N` the number of workers.
//!
//! The output event of a strategy costs `N·|A|` for CPMM and `0` otherwise.
//!
//! `|A|` — the byte size fed into these formulas — is the matrix's
//! **predicted-nnz bytes**: `8 · nnz` of its propagated
//! [`dmac_stats::SparsityProfile`]. Sparse tiles already ship CSC-sized
//! payloads on the wire; this makes the planner price what the wire will
//! actually carry.
//!
//! A dense matrix has `nnz = rows · cols`, so the paper's worst-case
//! Table-2 pricing ([`dmac_lang::infer::MatrixStats::est_bytes`]) is
//! exactly the `density = 1.0` special case. The model itself is
//! agnostic — it takes `size_bytes` and applies the §4.1 event rules.

use dmac_cluster::PartitionScheme;

use crate::strategy::Strategy;

/// The cost model, parameterised by the cluster size `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Number of workers (the paper's `N`).
    pub workers: u64,
}

impl CostModel {
    /// Model for an `N`-worker cluster.
    pub fn new(workers: usize) -> CostModel {
        CostModel {
            workers: workers as u64,
        }
    }

    /// Cost of an input event requiring scheme `req` on a matrix of
    /// estimated size `size_bytes`, given whether a non-communication
    /// dependency can satisfy it (`free`).
    pub fn input_cost(&self, req: PartitionScheme, free: bool, size_bytes: u64) -> u64 {
        if free {
            return 0;
        }
        match req {
            PartitionScheme::Row | PartitionScheme::Col => size_bytes,
            PartitionScheme::Broadcast => self.workers * size_bytes,
            // A Hash requirement never occurs (it is a storage state).
            PartitionScheme::Hash => 0,
        }
    }

    /// Cost of a strategy's output event for an output of estimated size
    /// `out_bytes`.
    pub fn output_cost(&self, strategy: Strategy, out_bytes: u64) -> u64 {
        if strategy.output_communicates() {
            self.workers * out_bytes
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_situations_of_section_4_1() {
        let m = CostModel::new(4);
        // Situation 1: non-communication dependency
        assert_eq!(m.input_cost(PartitionScheme::Row, true, 1000), 0);
        assert_eq!(m.input_cost(PartitionScheme::Broadcast, true, 1000), 0);
        // Situation 2: (transpose-)partition
        assert_eq!(m.input_cost(PartitionScheme::Row, false, 1000), 1000);
        assert_eq!(m.input_cost(PartitionScheme::Col, false, 1000), 1000);
        // Situation 3: (transpose-)broadcast
        assert_eq!(m.input_cost(PartitionScheme::Broadcast, false, 1000), 4000);
    }

    #[test]
    fn cpmm_output_costs_n_times_size() {
        let m = CostModel::new(5);
        assert_eq!(m.output_cost(Strategy::Cpmm, 100), 500);
        assert_eq!(m.output_cost(Strategy::Rmm1, 100), 0);
        assert_eq!(m.output_cost(Strategy::Rmm2, 100), 0);
        assert_eq!(
            m.output_cost(Strategy::CellAligned(PartitionScheme::Row), 100),
            0
        );
    }
}
