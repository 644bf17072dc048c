//! Fault-tolerance overhead: what a mid-run worker loss costs GNMF in
//! simulated time and bytes, versus the fault-free run, across worker
//! counts — plus the price of a flaky network absorbed by send retries.
//!
//! Faults are seeded (`FaultPlan`), so every row of this report is
//! reproducible. The recovered runs produce bit-for-bit the same factors
//! as the healthy ones (asserted below), which is the recovery layer's
//! core invariant: failures cost time, never accuracy.

use dmac_apps::Gnmf;
use dmac_bench::{fmt_bytes, fmt_sec, header, LOCAL_THREADS};
use dmac_cluster::{FaultPlan, NetworkModel};
use dmac_core::engine::ExecReport;
use dmac_core::Session;
use dmac_matrix::BlockedMatrix;

const SEED: u64 = 0xFA17;

fn session(workers: usize, plan: Option<FaultPlan>) -> Session {
    let mut b = Session::builder()
        .workers(workers)
        .local_threads(LOCAL_THREADS)
        .block_size(64)
        .seed(11)
        .network(NetworkModel {
            bandwidth_bytes_per_sec: 1.0e9,
            latency_sec: 2e-4,
        });
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    b.build()
}

fn run_gnmf(
    cfg: &Gnmf,
    v: &BlockedMatrix,
    workers: usize,
    plan: Option<FaultPlan>,
) -> (ExecReport, Vec<f64>) {
    let mut s = session(workers, plan);
    let (report, handles) = cfg
        .run(&mut s, v.clone())
        .expect("run must survive the plan");
    let w = s.value(handles.w).unwrap().to_dense().data().to_vec();
    (report, w)
}

pub fn run() {
    let cfg = Gnmf {
        rows: 512,
        cols: 256,
        sparsity: 0.05,
        rank: 16,
        iterations: 3,
    };
    let v = dmac_data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 64, 5);

    header("Recovery overhead — GNMF, one worker killed mid-run");
    println!(
        "{:>8}{:>12}{:>12}{:>10}{:>14}{:>14}{:>12}{:>10}",
        "workers",
        "healthy",
        "faulty",
        "slowdown",
        "total bytes",
        "rec bytes",
        "rec time",
        "replays"
    );
    for workers in [2usize, 4, 8] {
        let (ok, w_ok) = run_gnmf(&cfg, &v, workers, None);
        assert!(!ok.recovery.any());
        // Kill at the middle stage of the plan, victim drawn by seed.
        let kill = FaultPlan::kill_stage(ok.stage_count / 2, SEED + workers as u64);
        let (faulty, w) = run_gnmf(&cfg, &v, workers, Some(kill));
        assert_eq!(faulty.recovery.worker_failures, 1);
        assert_eq!(w, w_ok, "recovered factors must match healthy bit-for-bit");
        let slowdown = faulty.sim_time_sec() / ok.sim_time_sec();
        println!(
            "{:>8}{:>12}{:>12}{:>9.2}x{:>14}{:>14}{:>12}{:>10}",
            workers,
            fmt_sec(ok.sim_time_sec()),
            fmt_sec(faulty.sim_time_sec()),
            slowdown,
            fmt_bytes(faulty.comm.total_bytes()),
            fmt_bytes(faulty.recovery.recovery_bytes),
            fmt_sec(faulty.recovery.recovery_sec),
            faulty.recovery.replayed_steps,
        );
    }

    header("Transient network faults — retry cost (4 workers)");
    println!(
        "{:>10}{:>12}{:>10}{:>14}{:>12}",
        "p(fail)", "sim time", "retries", "retry bytes", "slowdown"
    );
    let (ok, w_ok) = run_gnmf(&cfg, &v, 4, None);
    for p in [0.01, 0.05, 0.2] {
        let plan = FaultPlan::none().with_transient(p).with_send_attempts(12);
        let (r, w) = run_gnmf(&cfg, &v, 4, Some(plan));
        assert_eq!(w, w_ok, "retries must be invisible to results");
        println!(
            "{:>10.2}{:>12}{:>10}{:>14}{:>11.2}x",
            p,
            fmt_sec(r.sim_time_sec()),
            r.comm.retry_events(),
            fmt_bytes(r.comm.retry_bytes()),
            r.sim_time_sec() / ok.sim_time_sec(),
        );
    }
}
