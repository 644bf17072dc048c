//! `gnmf_sim` — the compute-bound workload.
//!
//! GNMF on a sparse `V` in the in-process simulator backend: no sockets,
//! no disk, planning under 1 % of the wall; the multiply primitives
//! (`rmm1` + `rmm2` + `cpmm`: dense×dense, CSC×dense) and the fused
//! cell-wise kernel are almost all of a run. This is where a `matrix`
//! kernel change must show, and where transport, serve and store changes
//! must show nothing.

use std::time::Instant;

use dmac_apps::gnmf::GnmfProgram;
use dmac_apps::Gnmf;
use dmac_core::Session;
use dmac_lang::Program;
use dmac_matrix::BlockedMatrix;

use crate::flops;
use crate::harness::{bits, max_rel_diff, Batch, Ctx, Outcome, RunResult};
use crate::layers;
use crate::span::Recorder;

pub const WORKERS: usize = 4;
pub const LOCAL_THREADS: usize = 2;

/// Results must agree with the sequential reference within this
/// relative difference (they differ only in summation order).
pub const REFERENCE_TOLERANCE: f64 = 1e-9;

pub struct GnmfSim {
    cfg: Gnmf,
    block: usize,
    engine_seed: u64,
    v: BlockedMatrix,
    session: Session,
    handles: GnmfProgram,
}

fn config(ctx: &Ctx) -> (Gnmf, usize) {
    let cfg = Gnmf {
        rows: ctx.size(4096, 256),
        cols: ctx.size(3072, 192),
        sparsity: 0.05,
        rank: ctx.size(128, 8),
        iterations: 4,
    };
    (cfg, ctx.size(128, 16))
}

impl GnmfSim {
    fn fetch(&self, rec: &mut Recorder) -> Result<(BlockedMatrix, BlockedMatrix), String> {
        rec.span("core.engine.fetch", |_| {
            let w = self
                .session
                .value(self.handles.w)
                .map_err(|e| e.to_string())?;
            let h = self
                .session
                .value(self.handles.h)
                .map_err(|e| e.to_string())?;
            Ok((w, h))
        })
    }
}

impl Batch for GnmfSim {
    /// Bits of (W, H) after the first warm-up run; every run must match.
    type Reference = (Vec<u64>, Vec<u64>);

    fn setup(ctx: &Ctx, rec: &mut Recorder) -> Result<Self, String> {
        let (cfg, block) = config(ctx);
        let v = rec.span("data.gen", |_| {
            dmac_data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, block, ctx.seed_for(1))
        });
        let engine_seed = ctx.seed_for(2);
        let mut session = Session::builder()
            .workers(WORKERS)
            .local_threads(LOCAL_THREADS)
            .block_size(block)
            .seed(engine_seed)
            .build();
        let (_, handles) = cfg
            .run(&mut session, v.clone())
            .map_err(|e| format!("warm-up run: {e}"))?;
        Ok(GnmfSim {
            cfg,
            block,
            engine_seed,
            v,
            session,
            handles,
        })
    }

    fn reference(&mut self) -> Result<Self::Reference, String> {
        let (w, h) = self.fetch(&mut Recorder::new(false))?;
        let (w0, h0) = self
            .cfg
            .initial_factors(&self.handles, self.block, self.engine_seed)
            .map_err(|e| e.to_string())?;
        let (rw, rh) = self
            .cfg
            .reference(&self.v, w0, h0)
            .map_err(|e| e.to_string())?;
        let diff = max_rel_diff(&w, &rw).max(max_rel_diff(&h, &rh));
        if diff > REFERENCE_TOLERANCE {
            return Err(format!(
                "warm-up result differs from Gnmf::reference by {diff:e} (limit {REFERENCE_TOLERANCE:e})"
            ));
        }
        Ok((bits(&w), bits(&h)))
    }

    fn flops_per_run(&self) -> f64 {
        let c = &self.cfg;
        (c.iterations as u64
            * flops::gnmf_iteration(
                c.rows as u64,
                c.cols as u64,
                c.rank as u64,
                self.v.nnz() as u64,
            )) as f64
    }

    fn run(
        &mut self,
        rec: &mut Recorder,
        staged: bool,
        warm: &Self::Reference,
    ) -> Result<RunResult, String> {
        let v = self.v.clone();
        let t0 = Instant::now();
        let report = if staged {
            rec.span("run", |rec| -> Result<_, String> {
                rec.span("core.engine.bind", |_| self.session.bind("V", v))
                    .map_err(|e| e.to_string())?;
                let (program, handles) = rec
                    .span("apps.build", |_| {
                        let mut p = Program::new();
                        self.cfg.build(&mut p).map(|h| (p, h))
                    })
                    .map_err(|e| e.to_string())?;
                self.handles = handles;
                rec.span("analyze.lint", |_| {
                    std::hint::black_box(dmac_analyze::lint_program(&program));
                });
                let prep = rec
                    .span("core.planner.plan", |_| self.session.prepare(&program))
                    .map_err(|e| e.to_string())?;
                rec.count("certified_peak_bytes", prep.certificate().peak);
                rec.span("core.engine.exec", |_| self.session.run_prepared(&prep))
                    .map_err(|e| e.to_string())
            })?
        } else {
            let (report, handles) = self
                .cfg
                .run(&mut self.session, v)
                .map_err(|e| e.to_string())?;
            self.handles = handles;
            report
        };
        let wall_s = t0.elapsed().as_secs_f64();

        let (w, h) = self.fetch(rec)?;
        let mut failures = Vec::new();
        if (bits(&w), bits(&h)) != *warm {
            failures.push("gnmf_sim: factors are not bit-identical to the warm-up run".into());
        }
        Ok(RunResult {
            wall_s,
            wire_bytes: report.comm.total_bytes(),
            peak_resident: report.trace.peak_resident(),
            failures,
            reports: vec![report],
            counters: Vec::new(),
        })
    }

    fn layers(
        &mut self,
        _ctx: &Ctx,
        rec: &mut Recorder,
        staged: &[RunResult],
        _plain_median_s: f64,
        out: &mut Outcome,
    ) -> Result<(), String> {
        layers::report_layers(staged, rec, out);
        out.set(
            "data.gen_s",
            crate::stats::median(&rec.durations("data.gen")),
        );
        let mut p = Program::new();
        self.cfg.build(&mut p).map_err(|e| e.to_string())?;
        layers::probe_verify(&p, &[("V", &self.v)], self.block, WORKERS, out)?;
        layers::probe_measure(&[&self.v], out);
        layers::probe_gnmf_kernels(&self.v, self.cfg.rank, WORKERS, LOCAL_THREADS, out);
        let prep = self.session.prepare(&p).map_err(|e| e.to_string())?;
        out.set(
            "core.planner.certified_peak_bytes",
            prep.certificate().peak as f64,
        );
        Ok(())
    }

    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}
