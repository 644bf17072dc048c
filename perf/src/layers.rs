//! Per-layer numbers the batch workloads derive the same way: sums over
//! the `ExecReport`s the program already returns ([report]), the
//! harness's own spans ([span]), and direct timed calls of a layer's
//! public functions on the workload's inputs ([probe]).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dmac_cluster::transport::{binfmt, wire};
use dmac_cluster::{OpSpan, PartitionScheme};
use dmac_core::engine::ExecReport;
use dmac_core::planner::{plan_program_profiled, PlannerConfig};
use dmac_core::SparsityProfile;
use dmac_lang::{MatrixId, MatrixOrigin, Program};
use dmac_matrix::{
    eval_fused_block, AggregationMode, Block, BlockedMatrix, DenseBlock, FusedOp, LocalExecutor,
};

use crate::harness::{probe, sum_spans, Outcome, RunResult};
use crate::span::Recorder;
use crate::stats::median;

/// How long one probe repeats its call.
pub const PROBE_BUDGET: Duration = Duration::from_millis(150);

fn is_cellwise(op: &str) -> bool {
    matches!(
        op,
        "add" | "sub" | "cell_mul" | "cell_div" | "fused" | "map" | "reduce"
    )
}

fn is_move(op: &str) -> bool {
    matches!(
        op,
        "partition" | "broadcast" | "rehash" | "extract" | "transpose" | "free"
    )
}

/// Median over runs of a per-run quantity.
fn per_run(runs: &[RunResult], f: impl Fn(&[&ExecReport]) -> f64) -> f64 {
    let xs: Vec<f64> = runs
        .iter()
        .map(|r| f(&r.reports.iter().collect::<Vec<_>>()))
        .collect();
    median(&xs)
}

/// Seconds of primitives matching `pick`, summed per run.
fn op_seconds(runs: &[RunResult], pick: impl Fn(&str) -> bool) -> f64 {
    per_run(runs, |reps| {
        sum_spans(reps, |s: &OpSpan| if pick(s.op) { s.wall_sec } else { 0.0 })
    })
}

/// `core.planner.*`, `core.engine.*`, `cluster.*`, `stats.nnz_ratio` and
/// `matrix.pool_*` from the staged runs' reports and spans.
pub fn report_layers(staged: &[RunResult], rec: &Recorder, out: &mut Outcome) {
    let span_median = |name: &str| median(&rec.durations(name));
    out.set("apps.build_ms", span_median("apps.build") * 1e3);
    out.set("analyze.lint_us", span_median("analyze.lint") * 1e6);
    out.set(
        "core.planner.plan_ms",
        per_run_span(rec, "core.planner.plan") * 1e3,
    );
    out.set(
        "core.engine.bind_ms",
        per_run_span(rec, "core.engine.bind") * 1e3,
    );
    out.set(
        "core.engine.fetch_ms",
        per_run_span(rec, "core.engine.fetch") * 1e3,
    );
    let exec_s = per_run_span(rec, "core.engine.exec");
    out.set("core.engine.exec_s", exec_s);

    let all_ops = op_seconds(staged, |_| true);
    out.set("core.engine.self_s", (exec_s - all_ops).max(0.0));
    out.set("cluster.rmm1_s", op_seconds(staged, |o| o == "rmm1"));
    out.set("cluster.rmm2_s", op_seconds(staged, |o| o == "rmm2"));
    out.set("cluster.cpmm_s", op_seconds(staged, |o| o == "cpmm"));
    out.set("cluster.cellwise_s", op_seconds(staged, is_cellwise));
    out.set("cluster.move_s", op_seconds(staged, is_move));
    out.set("cluster.ops", per_run(staged, |r| sum_spans(r, |_| 1.0)));
    let rmm1_blocks = per_run(staged, |r| {
        sum_spans(r, |s| if s.op == "rmm1" { s.blocks as f64 } else { 0.0 })
    });
    let rmm1_us = if rmm1_blocks > 0.0 {
        op_seconds(staged, |o| o == "rmm1") * 1e6 / rmm1_blocks
    } else {
        0.0
    };
    out.set("cluster.rmm1_us_per_block", rmm1_us);

    let sum_reports =
        |f: &dyn Fn(&ExecReport) -> f64| per_run(staged, |r| r.iter().map(|x| f(x)).sum());
    out.set(
        "cluster.shuffle_bytes",
        sum_reports(&|r| r.comm.shuffle_bytes() as f64),
    );
    out.set(
        "cluster.broadcast_bytes",
        sum_reports(&|r| r.comm.broadcast_bytes() as f64),
    );
    out.set(
        "core.planner.stages",
        sum_reports(&|r| r.stage_count as f64),
    );
    out.set(
        "core.planner.steps",
        sum_reports(&|r| r.trace.steps.len() as f64),
    );
    let predicted = sum_reports(&|r| r.trace.predicted_total() as f64);
    let actual = sum_reports(&|r| r.trace.actual_total() as f64);
    out.set("core.planner.predicted_bytes", predicted);
    out.set(
        "core.planner.cost_ratio",
        if predicted > 0.0 {
            actual / predicted
        } else {
            0.0
        },
    );
    let pred_nnz = sum_reports(&|r| r.trace.predicted_nnz_total() as f64);
    let obs_nnz = sum_reports(&|r| r.trace.observed_nnz_total() as f64);
    out.set(
        "stats.nnz_ratio",
        if pred_nnz > 0.0 {
            obs_nnz / pred_nnz
        } else {
            0.0
        },
    );
    out.set(
        "matrix.pool_reused",
        sum_reports(&|r| r.trace.pool.reused as f64),
    );
    out.set(
        "matrix.pool_allocated",
        sum_reports(&|r| r.trace.pool.allocated as f64),
    );
}

/// Median over runs of the summed duration of spans called `name` (a run
/// may open the span several times: one program per iteration).
pub fn per_run_span(rec: &Recorder, name: &str) -> f64 {
    let mut by_run: std::collections::BTreeMap<u64, f64> = Default::default();
    for s in rec.spans().iter().filter(|s| s.name == name) {
        *by_run.entry(s.run).or_default() += s.dur();
    }
    median(&by_run.into_values().collect::<Vec<_>>())
}

/// `analyze.verify_ms`: plan the program the way `Session::run` does
/// (hash-placed sources, measured profiles), then time the static
/// verifier on that plan. It is off the release hot path today; the
/// number is what putting it there would cost.
pub fn probe_verify(
    program: &Program,
    inputs: &[(&str, &BlockedMatrix)],
    block: usize,
    workers: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg = PlannerConfig {
        fusion_block: block,
        ..PlannerConfig::default()
    };
    let mut initial: HashMap<MatrixId, PartitionScheme> = HashMap::new();
    let mut sources: HashMap<MatrixId, SparsityProfile> = HashMap::new();
    for decl in program.matrices() {
        if matches!(decl.origin, MatrixOrigin::Load | MatrixOrigin::Random) {
            initial.insert(decl.id, PartitionScheme::Hash);
        }
        if let Some((_, m)) = inputs.iter().find(|(n, _)| *n == decl.name) {
            sources.insert(decl.id, SparsityProfile::measure(m));
        }
    }
    let planned = plan_program_profiled(program, &cfg, workers, &initial, &sources)
        .map_err(|e| format!("verify probe: planning failed: {e}"))?;
    dmac_analyze::verify_planned(program, &planned, &cfg, workers)
        .map_err(|e| format!("verify probe: plan rejected: {e}"))?;
    let s = probe(PROBE_BUDGET, 3, || {
        std::hint::black_box(dmac_analyze::verify_planned(program, &planned, &cfg, workers).ok());
    });
    out.set("analyze.verify_ms", s * 1e3);
    Ok(())
}

/// `stats.measure_ms`: the exact nnz census of the bound inputs.
pub fn probe_measure(inputs: &[&BlockedMatrix], out: &mut Outcome) {
    let s = probe(PROBE_BUDGET, 3, || {
        for m in inputs {
            std::hint::black_box(SparsityProfile::measure(m));
        }
    });
    out.set("stats.measure_ms", s * 1e3);
}

fn dense_block(rows: usize, cols: usize, salt: u64) -> DenseBlock {
    let mut rng = dmac_matrix::SplitMix64::new(salt);
    DenseBlock::from_fn(rows, cols, |_, _| rng.next_f64() + 0.5)
}

/// The fullest sparse block of a matrix (a *real* block of the workload's
/// input, not a synthetic one).
fn fullest_sparse_block(m: &BlockedMatrix) -> Option<Arc<Block>> {
    m.iter_blocks()
        .map(|(_, _, b)| b)
        .filter(|b| b.is_sparse())
        .max_by_key(|b| b.nnz())
        .cloned()
}

/// `matrix.*` kernel probes for the GNMF workloads: the dense block
/// multiply, CSC×dense on a real block of `V`, the fused update chain,
/// and the threaded executor at one worker's shard shape. Flops and
/// bytes here are computed from shapes and nnz, not measured.
pub fn probe_gnmf_kernels(
    v: &BlockedMatrix,
    rank: usize,
    workers: usize,
    threads: usize,
    out: &mut Outcome,
) {
    let b = v.block_size();
    let (x, y) = (dense_block(b, b, 1), dense_block(b, b, 2));
    let mut acc = DenseBlock::zeros(b, b);
    let s = probe(PROBE_BUDGET, 5, || {
        x.matmul_acc(&y, &mut acc).expect("square blocks");
        std::hint::black_box(&acc);
    });
    let flops = 2.0 * (b * b * b) as f64;
    out.set("matrix.dense_mm_gflops", flops / s / 1e9);
    // Three b×b blocks of f64 touched once each: the least the kernel
    // must move, so the ratio is an upper bound on arithmetic intensity.
    out.set(
        "matrix.mm_flops_per_byte",
        flops / (3.0 * 8.0 * (b * b) as f64),
    );

    if let Some(block) = fullest_sparse_block(v) {
        if let Block::Sparse(csc) = block.as_ref() {
            let rhs = dense_block(csc.cols(), rank.min(b), 3);
            let mut acc = DenseBlock::zeros(csc.rows(), rhs.cols());
            let s = probe(PROBE_BUDGET, 5, || {
                csc.matmul_dense_acc(&rhs, &mut acc).expect("conforming");
                std::hint::black_box(&acc);
            });
            let flops = 2.0 * csc.nnz() as f64 * rhs.cols() as f64;
            out.set("matrix.csc_dense_gflops", flops / s / 1e9);
        }
    }

    // GNMF's update chain H * (WᵀV) / (WᵀWH) as one fused pass.
    let leaves = [
        Block::Dense(dense_block(b, b, 4)),
        Block::Dense(dense_block(b, b, 5)),
        Block::Dense(dense_block(b, b, 6)),
    ];
    let refs: Vec<&Block> = leaves.iter().collect();
    let prog = [
        FusedOp::Leaf(0),
        FusedOp::Leaf(1),
        FusedOp::CellMul,
        FusedOp::Leaf(2),
        FusedOp::CellDiv,
    ];
    let pool = dmac_matrix::exec::buffer_pool::ResultBufferPool::new(4);
    let s = probe(PROBE_BUDGET, 5, || {
        let r = eval_fused_block(&prog, &refs, &pool).expect("well-formed chain");
        if let Block::Dense(d) = r {
            pool.release(d);
        }
    });
    out.set("matrix.fused_mcells_per_s", (b * b) as f64 / s / 1e6);

    // One worker's share of W·(HHᵀ): (rows/workers × rank) · (rank × rank).
    let shard_rows = (v.rows() / workers).max(b);
    let a = dmac_data::dense_random(shard_rows, rank, b, 7);
    let hh = dmac_data::dense_random(rank, rank, b, 8);
    let exec = LocalExecutor::new(threads, AggregationMode::InPlace);
    let s = probe(PROBE_BUDGET, 3, || {
        std::hint::black_box(exec.matmul(&a, &hh).expect("conforming"));
    });
    let flops = 2.0 * (shard_rows * rank * rank) as f64;
    out.set("matrix.exec_mm_gflops", flops / s / 1e9);
}

/// `matrix.dense_csc_gflops`: PageRank's kernel, a dense rank row times
/// a real (hyper-sparse) block of the link matrix.
pub fn probe_dense_csc(link: &BlockedMatrix, out: &mut Outcome) {
    let Some(block) = fullest_sparse_block(link) else {
        return;
    };
    let Block::Sparse(csc) = block.as_ref() else {
        return;
    };
    let row = dense_block(1, csc.rows(), 9);
    let mut acc = DenseBlock::zeros(1, csc.cols());
    let s = probe(PROBE_BUDGET, 50, || {
        csc.rmatmul_dense_acc(&row, &mut acc).expect("conforming");
        std::hint::black_box(&acc);
    });
    out.set("matrix.dense_csc_gflops", 2.0 * csc.nnz() as f64 / s / 1e9);
}

/// `cluster.transport.{encode,decode,seal}_mb_per_s`: the binary tile
/// codec and the shard seal on the run's real tiles (every block of the
/// link matrix and of the rank row, as one worker-sized batch).
pub fn probe_codec(tiles_of: &[&BlockedMatrix], out: &mut Outcome) {
    let tiles: Vec<(usize, usize, Arc<Block>)> = tiles_of
        .iter()
        .flat_map(|m| m.iter_blocks().map(|(bi, bj, b)| (bi, bj, Arc::clone(b))))
        .collect();
    let placed = || {
        tiles
            .iter()
            .map(|(bi, bj, b)| (0usize, *bi, *bj, b.as_ref()))
    };
    let body = binfmt::encode_tiles(placed());
    let mb = body.len() as f64 / 1e6;
    let s = probe(PROBE_BUDGET, 3, || {
        std::hint::black_box(binfmt::encode_tiles(placed()));
    });
    out.set("cluster.transport.encode_mb_per_s", mb / s);
    let s = probe(PROBE_BUDGET, 3, || {
        std::hint::black_box(binfmt::decode_tiles(&body).expect("own encoding decodes"));
    });
    out.set("cluster.transport.decode_mb_per_s", mb / s);
    let s = probe(PROBE_BUDGET, 3, || {
        std::hint::black_box(wire::shard_checksum(
            tiles.iter().map(|(bi, bj, b)| ((*bi, *bj), b.as_ref())),
        ));
    });
    out.set("cluster.transport.seal_mb_per_s", mb / s);
}
