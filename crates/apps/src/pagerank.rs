//! PageRank (paper Code 2).
//!
//! `rank = (rank %*% link) * 0.85 + D * 0.15`, where `link` is the
//! row-normalised adjacency matrix and `rank` a `1 × N` vector. `D` is the
//! teleport vector (uniform `1/N`). The link matrix is loop-invariant: the
//! whole point of the Figure 9(a) experiment is that DMac caches its
//! Column scheme once and only a Broadcast of the small rank vector moves
//! per iteration, while SystemML-S repartitions `link` every time.

use dmac_core::engine::{random_cell, ExecReport};
use dmac_core::{Result, Session};
use dmac_lang::{Expr, Program};
use dmac_matrix::BlockedMatrix;

use crate::checkpoint::{self, CheckpointedRun};

/// Store names the checkpointed PageRank driver snapshots at every phase
/// boundary. The loop-invariant `link` and `D` ride along so their
/// cached schemes restore on recovery (content addressing makes their
/// re-checkpoint free — the blobs already exist).
pub const PAGERANK_CHECKPOINT_NAMES: [&str; 3] = ["link", "D", "rank"];

/// PageRank configuration.
#[derive(Debug, Clone, Copy)]
pub struct PageRank {
    /// Node count.
    pub nodes: usize,
    /// Sparsity of the link matrix (edges / nodes²).
    pub link_sparsity: f64,
    /// Damping factor (0.85 in the paper).
    pub damping: f64,
    /// Iterations.
    pub iterations: usize,
}

/// Handles into the built program.
#[derive(Debug, Clone, Copy)]
pub struct PageRankProgram {
    /// The link matrix expression.
    pub link: Expr,
    /// The initial rank vector.
    pub rank0: Expr,
    /// The final rank vector.
    pub rank: Expr,
}

impl PageRank {
    /// Build the unrolled program; `link` and `D` must be bound.
    pub fn build(&self, p: &mut Program) -> Result<PageRankProgram> {
        let link = p.load("link", self.nodes, self.nodes, self.link_sparsity);
        let d = p.load("D", 1, self.nodes, 1.0);
        let rank0 = p.random("rank0", 1, self.nodes);
        // Every iteration adds the same teleport vector: one value, made
        // before the loop, so an iteration is broadcast -> walk -> update.
        let teleport = self.teleport(p, d)?;
        let mut rank = rank0;
        for i in 0..self.iterations {
            p.set_phase(i);
            let damped = self.damped_walk(p, link, rank)?;
            rank = p.add(damped, teleport)?;
        }
        p.store(rank, "rank");
        Ok(PageRankProgram { link, rank0, rank })
    }

    /// Build the init program of the checkpointed driver: generate the
    /// random initial rank vector and store it under `"rank"` (identity
    /// scale keeps it op-produced; `× 1.0` is bit-exact).
    pub fn build_init(&self, p: &mut Program) -> Result<Expr> {
        let rank0 = p.random("rank0", 1, self.nodes);
        let rank = p.scale_const(rank0, 1.0)?;
        p.store(rank, "rank");
        Ok(rank0)
    }

    /// Build the per-iteration program of the checkpointed driver: one
    /// damped walk step, reading and storing `"rank"`.
    pub fn build_step(&self, p: &mut Program) -> Result<()> {
        let link = p.load("link", self.nodes, self.nodes, self.link_sparsity);
        let d = p.load("D", 1, self.nodes, 1.0);
        let rank = p.load("rank", 1, self.nodes, 1.0);
        let next = self.update(p, link, d, rank)?;
        p.store(next, "rank");
        Ok(())
    }

    /// One damped walk step: `rank %*% link * damping + D * (1 - damping)`.
    fn update(&self, p: &mut Program, link: Expr, d: Expr, rank: Expr) -> Result<Expr> {
        let damped = self.damped_walk(p, link, rank)?;
        let teleport = self.teleport(p, d)?;
        Ok(p.add(damped, teleport)?)
    }

    /// The walk half of an update: `rank %*% link * damping`.
    fn damped_walk(&self, p: &mut Program, link: Expr, rank: Expr) -> Result<Expr> {
        let walk = p.matmul(rank, link)?;
        Ok(p.scale_const(walk, self.damping)?)
    }

    /// The teleport half: `D * (1 - damping)`, the same in every iteration.
    fn teleport(&self, p: &mut Program, d: Expr) -> Result<Expr> {
        Ok(p.scale_const(d, 1.0 - self.damping)?)
    }

    /// Run PageRank one iteration at a time, checkpointing
    /// `link`/`D`/`rank` at every phase boundary. Resumes from a
    /// recovered snapshot when the session's store holds one (see
    /// `Gnmf::run_checkpointed` for the recovery contract); otherwise
    /// binds the row-normalised `adjacency` and starts fresh. Read the
    /// final vector with `session.env_value("rank")`.
    pub fn run_checkpointed(
        &self,
        session: &mut Session,
        adjacency: &BlockedMatrix,
    ) -> Result<CheckpointedRun> {
        let mut step = Program::new();
        self.build_step(&mut step)?;
        let fresh = |session: &mut Session| {
            self.bind_inputs(session, adjacency)?;
            let mut init = Program::new();
            self.build_init(&mut init)?;
            session.run(&init).map(drop)
        };
        let names = PAGERANK_CHECKPOINT_NAMES.map(String::from);
        checkpoint::run_checkpointed(session, &names, self.iterations, fresh, &step)
    }

    /// Bind the row-normalised `link` and the uniform teleport vector `D`.
    fn bind_inputs(&self, session: &mut Session, adjacency: &BlockedMatrix) -> Result<()> {
        session.bind("link", dmac_data::row_normalize(adjacency)?)?;
        let share = 1.0 / self.nodes as f64;
        let d = BlockedMatrix::from_fn(1, self.nodes, session.block_size(), |_, _| share)?;
        session.bind("D", d)
    }

    /// Run on a session with a given adjacency matrix (row-normalised
    /// internally). Running again on the same session binds the identical
    /// `link` and `D`, which [`Session::bind`] keeps where the last plan
    /// left them: only the first run partitions the link matrix.
    pub fn run(
        &self,
        session: &mut Session,
        adjacency: &BlockedMatrix,
    ) -> Result<(ExecReport, PageRankProgram)> {
        self.bind_inputs(session, adjacency)?;
        let mut p = Program::new();
        let handles = self.build(&mut p)?;
        let report = session.run(&p)?;
        Ok((report, handles))
    }

    /// Deterministic initial rank vector matching the engine's generator.
    pub fn initial_rank(
        &self,
        handles: &PageRankProgram,
        block: usize,
        seed: u64,
    ) -> Result<BlockedMatrix> {
        BlockedMatrix::from_fn(1, self.nodes, block, |i, j| {
            random_cell(seed, handles.rank0.id, i, j)
        })
        .map_err(Into::into)
    }

    /// Plain local reference.
    pub fn reference(
        &self,
        link: &BlockedMatrix,
        mut rank: BlockedMatrix,
    ) -> Result<BlockedMatrix> {
        let teleport = 1.0 / self.nodes as f64 * (1.0 - self.damping);
        for _ in 0..self.iterations {
            rank = rank
                .matmul_reference(link)?
                .scale(self.damping)
                .add_scalar(teleport);
        }
        Ok(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PageRank {
        PageRank {
            nodes: 40,
            link_sparsity: 0.1,
            damping: 0.85,
            iterations: 3,
        }
    }

    #[test]
    fn engine_matches_reference() {
        let cfg = tiny();
        let g = dmac_data::powerlaw_graph(cfg.nodes, 160, 8, 3);
        let mut session = Session::builder()
            .workers(2)
            .local_threads(2)
            .block_size(8)
            .seed(5)
            .build();
        let (_, handles) = cfg.run(&mut session, &g).unwrap();
        let got = session.value(handles.rank).unwrap();

        let link = dmac_data::row_normalize(&g).unwrap();
        let r0 = cfg.initial_rank(&handles, 8, 5).unwrap();
        let expect = cfg.reference(&link, r0).unwrap();
        assert!(dmac_matrix::approx_eq_slice(
            got.to_dense().data(),
            expect.to_dense().data(),
            1e-9
        )
        .is_none());
    }

    #[test]
    fn dmac_moves_less_than_systemml_per_iteration() {
        let cfg = PageRank {
            iterations: 4,
            ..tiny()
        };
        let g = dmac_data::powerlaw_graph(cfg.nodes, 160, 8, 3);
        let run = |sys| {
            let mut s = Session::builder()
                .workers(2)
                .local_threads(1)
                .block_size(8)
                .system(sys)
                .build();
            let (report, _) = cfg.run(&mut s, &g).unwrap();
            report.comm.total_bytes()
        };
        use dmac_core::baselines::SystemKind;
        let dmac = run(SystemKind::Dmac);
        let sysml = run(SystemKind::SystemMlS);
        assert!(
            dmac < sysml,
            "DMac must communicate less: {dmac} vs {sysml}"
        );
    }

    /// With a fully dense link matrix the cost model's worst-case sizes
    /// are exact, so the flight recorder must show every step's measured
    /// bytes equal to the planner's prediction — and the per-iteration
    /// broadcast of the rank vector at `N·|rank|`.
    #[test]
    fn dense_run_conforms_to_cost_model_exactly() {
        let cfg = PageRank {
            nodes: 32,
            link_sparsity: 1.0,
            damping: 0.85,
            iterations: 2,
        };
        let adj = BlockedMatrix::from_fn(cfg.nodes, cfg.nodes, 8, |_, _| 1.0).unwrap();
        let mut s = Session::builder()
            .workers(4)
            .local_threads(1)
            .block_size(8)
            .seed(5)
            .build();
        let (report, _) = cfg.run(&mut s, &adj).unwrap();
        let trace = &report.trace;
        for c in trace.conformance() {
            assert_eq!(
                c.predicted, c.actual,
                "step {} ({} {}) must conform",
                c.step, c.kind, c.label
            );
        }
        assert_eq!(trace.predicted_total(), report.planner_estimate);
        let rank_bytes = 8 * cfg.nodes as u64;
        let broadcasts: Vec<u64> = trace
            .steps
            .iter()
            .filter(|t| t.kind == "broadcast")
            .map(|t| t.predicted_bytes)
            .collect();
        // The random starting vector is generated broadcast; every rank
        // vector an iteration computes but the last is broadcast once.
        assert_eq!(
            broadcasts,
            vec![4 * rank_bytes; cfg.iterations - 1],
            "one N·|rank| broadcast per computed rank vector"
        );
    }

    #[test]
    fn ranks_stay_positive_and_bounded() {
        let cfg = tiny();
        let g = dmac_data::powerlaw_graph(cfg.nodes, 160, 8, 3);
        let link = dmac_data::row_normalize(&g).unwrap();
        let r0 = BlockedMatrix::from_fn(1, cfg.nodes, 8, |_, _| 1.0 / cfg.nodes as f64).unwrap();
        let r = cfg.reference(&link, r0).unwrap();
        for (_, _, v) in r.to_triplets() {
            assert!(v > 0.0 && v < 1.0, "rank {v} out of range");
        }
    }
}
