//! Gaussian Non-Negative Matrix Factorisation (paper Code 1).
//!
//! Finds `W (d×k)` and `H (k×w)` with `V ≈ W·H` by the multiplicative
//! updates
//!
//! ```text
//! H ← H * (Wᵀ V) / (Wᵀ W H)
//! W ← W * (V Hᵀ) / (W H Hᵀ)
//! ```
//!
//! The program is unrolled over `iterations`, each iteration tagged as a
//! phase so the engine reports the per-iteration accumulated curves of
//! Figure 6.

use dmac_core::engine::{random_cell, ExecReport};
use dmac_core::{Result, Session};
use dmac_lang::{Expr, Program};
use dmac_matrix::BlockedMatrix;

use crate::checkpoint::{self, CheckpointedRun};

/// Store names the checkpointed GNMF driver snapshots at every phase
/// boundary. `V` rides along so its cached partition scheme (and the
/// free re-checkpoint content addressing grants unchanged matrices)
/// survives a restart.
pub const GNMF_CHECKPOINT_NAMES: [&str; 3] = ["V", "W", "H"];

/// GNMF configuration.
#[derive(Debug, Clone, Copy)]
pub struct Gnmf {
    /// Rows of `V` (users in the Netflix workload).
    pub rows: usize,
    /// Columns of `V` (movies).
    pub cols: usize,
    /// Sparsity of `V`.
    pub sparsity: f64,
    /// Factor rank `k` (the paper uses 200 for Netflix).
    pub rank: usize,
    /// Number of multiplicative-update iterations.
    pub iterations: usize,
}

/// Handles into the built program.
#[derive(Debug, Clone, Copy)]
pub struct GnmfProgram {
    /// The `V` input expression.
    pub v: Expr,
    /// Initial `W`.
    pub w0: Expr,
    /// Initial `H`.
    pub h0: Expr,
    /// Final `W`.
    pub w: Expr,
    /// Final `H`.
    pub h: Expr,
}

impl Gnmf {
    /// Build the unrolled GNMF program. `V` must be bound as `"V"`.
    pub fn build(&self, p: &mut Program) -> Result<GnmfProgram> {
        let v = p.load("V", self.rows, self.cols, self.sparsity);
        let w0 = p.random("W0", self.rows, self.rank);
        let h0 = p.random("H0", self.rank, self.cols);
        let (mut w, mut h) = (w0, h0);
        for i in 0..self.iterations {
            p.set_phase(i);
            (w, h) = update(p, v, w, h)?;
        }
        p.store(w, "W");
        p.store(h, "H");
        Ok(GnmfProgram { v, w0, h0, w, h })
    }

    /// Build the init program of the checkpointed driver: generate the
    /// random factors and store them under `"W"` / `"H"`. The identity
    /// scale keeps the stored outputs op-produced; multiplying by `1.0`
    /// is bit-exact, so the factors match [`Gnmf::initial_factors`] for
    /// the same seed and matrix ids.
    pub fn build_init(&self, p: &mut Program) -> Result<(Expr, Expr)> {
        let w0 = p.random("W0", self.rows, self.rank);
        let h0 = p.random("H0", self.rank, self.cols);
        let w = p.scale_const(w0, 1.0)?;
        let h = p.scale_const(h0, 1.0)?;
        p.store(w, "W");
        p.store(h, "H");
        Ok((w0, h0))
    }

    /// Build the per-iteration program of the checkpointed driver: load
    /// `V`, `W`, `H` from the store, apply one multiplicative update
    /// (same operator order as the unrolled [`Gnmf::build`]), and store
    /// the new factors back under the same names.
    pub fn build_step(&self, p: &mut Program) -> Result<()> {
        let v = p.load("V", self.rows, self.cols, self.sparsity);
        let w = p.load("W", self.rows, self.rank, 1.0);
        let h = p.load("H", self.rank, self.cols, 1.0);
        let (w_new, h_new) = update(p, v, w, h)?;
        p.store(w_new, "W");
        p.store(h_new, "H");
        Ok(())
    }

    /// Run GNMF one iteration at a time, checkpointing `V`/`W`/`H` at
    /// every phase boundary. If the session's store holds a recovered
    /// snapshot (the caller ran [`dmac_core::SharedStore::recover`] on a
    /// disk-backed store before building the session), the driver resumes
    /// from the recorded phase instead of replaying from iteration 0; a
    /// missing or invalid snapshot degrades to a full fresh run. `v` is
    /// only bound on a fresh start — a resumed run reads it back from the
    /// snapshot. Final factors are read with `session.env_value("W")` /
    /// `env_value("H")` (a fully-recovered run may execute no program at
    /// all, so `Session::value` handles would dangle).
    pub fn run_checkpointed(
        &self,
        session: &mut Session,
        v: &BlockedMatrix,
    ) -> Result<CheckpointedRun> {
        let mut step = Program::new();
        self.build_step(&mut step)?;
        let fresh = |session: &mut Session| {
            session.bind("V", v.clone())?;
            let mut init = Program::new();
            self.build_init(&mut init)?;
            session.run(&init).map(drop)
        };
        let names = GNMF_CHECKPOINT_NAMES.map(String::from);
        checkpoint::run_checkpointed(session, &names, self.iterations, fresh, &step)
    }

    /// Run GNMF on a session; `v` is bound and the program executed.
    pub fn run(
        &self,
        session: &mut Session,
        v: BlockedMatrix,
    ) -> Result<(ExecReport, GnmfProgram)> {
        session.bind("V", v)?;
        let mut p = Program::new();
        let handles = self.build(&mut p)?;
        let report = session.run(&p)?;
        Ok((report, handles))
    }

    /// The deterministic initial factor matrices the engine will generate
    /// for a given seed (used by the reference implementation).
    pub fn initial_factors(
        &self,
        handles: &GnmfProgram,
        block: usize,
        seed: u64,
    ) -> Result<(BlockedMatrix, BlockedMatrix)> {
        let w = BlockedMatrix::from_fn(self.rows, self.rank, block, |i, j| {
            random_cell(seed, handles.w0.id, i, j)
        })?;
        let h = BlockedMatrix::from_fn(self.rank, self.cols, block, |i, j| {
            random_cell(seed, handles.h0.id, i, j)
        })?;
        Ok((w, h))
    }

    /// Plain local reference: the same updates with sequential kernels.
    pub fn reference(
        &self,
        v: &BlockedMatrix,
        mut w: BlockedMatrix,
        mut h: BlockedMatrix,
    ) -> Result<(BlockedMatrix, BlockedMatrix)> {
        for _ in 0..self.iterations {
            let wt = w.transpose();
            let wt_v = wt.matmul_reference(v)?;
            let wt_w = wt.matmul_reference(&w)?;
            let wt_w_h = wt_w.matmul_reference(&h)?;
            h = h.cell_mul(&wt_v)?.cell_div(&wt_w_h)?;
            let ht = h.transpose();
            let v_ht = v.matmul_reference(&ht)?;
            let h_ht = h.matmul_reference(&ht)?;
            let w_h_ht = w.matmul_reference(&h_ht)?;
            w = w.cell_mul(&v_ht)?.cell_div(&w_h_ht)?;
        }
        Ok((w, h))
    }

    /// Frobenius reconstruction error `‖V − W·H‖`.
    pub fn reconstruction_error(
        v: &BlockedMatrix,
        w: &BlockedMatrix,
        h: &BlockedMatrix,
    ) -> Result<f64> {
        let wh = w.matmul_reference(h)?;
        Ok(v.sub(&wh)?.norm2())
    }
}

/// One multiplicative update: the new `(W, H)` from `V` and the old.
fn update(p: &mut Program, v: Expr, w: Expr, h: Expr) -> Result<(Expr, Expr)> {
    // H = H * (Wt %*% V) / (Wt %*% W %*% H)
    let wt_v = p.matmul(w.t(), v)?;
    let wt_w = p.matmul(w.t(), w)?;
    let wt_w_h = p.matmul(wt_w, h)?;
    let h_num = p.cell_mul(h, wt_v)?;
    let h = p.cell_div(h_num, wt_w_h)?;
    // W = W * (V %*% Ht) / (W %*% H %*% Ht)
    let v_ht = p.matmul(v, h.t())?;
    let h_ht = p.matmul(h, h.t())?;
    let w_h_ht = p.matmul(w, h_ht)?;
    let w_num = p.cell_mul(w, v_ht)?;
    Ok((p.cell_div(w_num, w_h_ht)?, h))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Gnmf {
        Gnmf {
            rows: 30,
            cols: 24,
            sparsity: 0.3,
            rank: 4,
            iterations: 2,
        }
    }

    #[test]
    fn program_has_ten_ops_per_iteration() {
        let mut p = Program::new();
        tiny().build(&mut p).unwrap();
        assert_eq!(p.ops().len(), 2 * 10);
        assert_eq!(p.ops()[0].phase, 0);
        assert_eq!(p.ops()[10].phase, 1);
        p.validate().unwrap();
    }

    #[test]
    fn engine_matches_reference() {
        let cfg = tiny();
        let mut session = Session::builder()
            .workers(3)
            .local_threads(2)
            .block_size(8)
            .seed(77)
            .build();
        let v = dmac_data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 8, 5);
        let (_, handles) = cfg.run(&mut session, v.clone()).unwrap();
        let got_w = session.value(handles.w).unwrap();
        let got_h = session.value(handles.h).unwrap();

        let (w0, h0) = cfg.initial_factors(&handles, 8, 77).unwrap();
        let (ref_w, ref_h) = cfg.reference(&v, w0, h0).unwrap();
        assert!(
            dmac_matrix::approx_eq_slice(got_w.to_dense().data(), ref_w.to_dense().data(), 1e-6)
                .is_none(),
            "W mismatch"
        );
        assert!(
            dmac_matrix::approx_eq_slice(got_h.to_dense().data(), ref_h.to_dense().data(), 1e-6)
                .is_none(),
            "H mismatch"
        );
    }

    /// GNMF's plan exercises every primitive the flight recorder knows:
    /// partitions, broadcasts, CPMM, the RMM variants, and cell-wise
    /// work. The sparse input makes `|A|` a worst-case bound rather than
    /// exact, but the model must never *undershoot* on the dense
    /// intermediates, and the trace totals must stay internally
    /// consistent with the planner's estimate.
    #[test]
    fn trace_covers_all_primitives_and_predictions_sum() {
        let cfg = tiny();
        let mut session = Session::builder()
            .workers(4)
            .local_threads(1)
            .block_size(8)
            .seed(77)
            .build();
        let v = dmac_data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 8, 5);
        let (report, _) = cfg.run(&mut session, v).unwrap();
        let trace = &report.trace;
        assert_eq!(trace.predicted_total(), report.planner_estimate);
        assert_eq!(trace.stage_count, report.stage_count);
        assert_eq!(trace.workers, 4);
        let kinds: std::collections::HashSet<&str> =
            trace.steps.iter().map(|s| s.kind.as_str()).collect();
        for expected in ["partition", "broadcast", "CPMM"] {
            assert!(
                kinds.contains(expected),
                "trace missing {expected}: {kinds:?}"
            );
        }
        // `W.t` and `H.t` are views an operand reads through, not steps.
        assert!(!kinds.contains("transpose"), "{kinds:?}");
        // Dense intermediates (the factors and their products) conform
        // exactly; only the sparse V load may deviate from worst case,
        // and CPMM sits at or below its N·|AB| bound (here the shared
        // dimension splits into fewer blocks than workers, so fewer than
        // N partials actually ship).
        for t in &trace.steps {
            if t.label.starts_with("V(") {
                continue;
            }
            if t.kind == "CPMM" {
                assert!(
                    t.actual_bytes <= t.predicted_bytes,
                    "step {} (CPMM {}): {} exceeds the N·|AB| bound {}",
                    t.step,
                    t.label,
                    t.actual_bytes,
                    t.predicted_bytes
                );
            } else {
                assert_eq!(
                    t.predicted_bytes, t.actual_bytes,
                    "step {} ({} {}) on dense data must conform",
                    t.step, t.kind, t.label
                );
            }
        }
        // Per-worker traffic is recorded and sums to the wire total.
        let sent: u64 = trace.sent_per_worker().iter().sum();
        assert_eq!(sent, trace.wire_total());
    }

    #[test]
    fn iterations_reduce_reconstruction_error() {
        let cfg = Gnmf {
            iterations: 6,
            ..tiny()
        };
        let v = dmac_data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 8, 5);
        let mut p = Program::new();
        let handles = cfg.build(&mut p).unwrap();
        let (w0, h0) = cfg.initial_factors(&handles, 8, 0xD11AC).unwrap();
        let e0 = Gnmf::reconstruction_error(&v, &w0, &h0).unwrap();
        let (w, h) = cfg.reference(&v, w0, h0).unwrap();
        let e1 = Gnmf::reconstruction_error(&v, &w, &h).unwrap();
        assert!(e1 < e0, "GNMF must reduce error: {e0} -> {e1}");
    }
}
