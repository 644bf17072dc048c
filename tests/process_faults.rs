//! Real process faults: a `dmac-workerd` worker is SIGKILLed mid-run —
//! no injected [`dmac::cluster::FaultPlan`], an actual `kill(9)` of a
//! live OS process — and the coordinator must notice **organically**
//! (connection EOF, reaped child, or missed heartbeats), surface the
//! same typed [`ClusterError::WorkerLost`] the simulator's fault
//! injector produces, and let the engine's lineage recovery rebuild the
//! lost shards on the survivors.
//!
//! The load-bearing claim mirrors `tests/failure_injection.rs`: results
//! after recovering from a real process death are **bit-for-bit
//! identical** to the healthy run, because logical workers are remapped
//! (never renumbered) and both backends execute the same shared kernels.

use dmac::apps::{Gnmf, PageRank};
use dmac::cluster::{ClusterError, KillAt, SocketOptions};
use dmac::core::baselines::SystemKind;
use dmac::core::{CoreError, Session};

fn gnmf_cfg() -> Gnmf {
    Gnmf {
        rows: 24,
        cols: 18,
        sparsity: 0.4,
        rank: 4,
        iterations: 2,
    }
}

fn socket_session(opts: SocketOptions, recovery_attempts: usize) -> Session {
    Session::builder()
        .system(SystemKind::Dmac)
        .workers(3)
        .local_threads(2)
        .block_size(8)
        .seed(7)
        .recovery_attempts(recovery_attempts)
        .socket_transport(opts)
        .try_build()
        .expect("worker processes must launch")
}

/// f64 bit patterns of a gathered matrix (exact comparison, no epsilon).
fn bits(m: dmac::matrix::BlockedMatrix) -> Vec<u64> {
    m.to_dense().data().iter().map(|x| x.to_bits()).collect()
}

/// Run GNMF on the socket backend; returns the W/H factor bit patterns
/// and the report.
fn run_gnmf(opts: SocketOptions) -> (Vec<u64>, Vec<u64>, dmac::core::engine::ExecReport, Session) {
    let cfg = gnmf_cfg();
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 8, 5);
    let mut s = socket_session(opts, 3);
    let (report, h) = cfg.run(&mut s, v).unwrap();
    let w = bits(s.value(h.w).unwrap());
    let hh = bits(s.value(h.h).unwrap());
    (w, hh, report, s)
}

/// SIGKILL each host at several points mid-run; every variant must
/// recover on the survivors and reproduce the healthy run exactly.
#[test]
fn sigkilled_worker_recovers_bit_identically() {
    let (w0, h0, healthy_report, mut healthy) = run_gnmf(SocketOptions::default());
    assert!(
        !healthy_report.recovery.any(),
        "healthy run must not recover"
    );
    let healthy_resident = healthy.transport_stats().resident_values;
    healthy.shutdown_transport().unwrap();

    for (host, after_ops) in [(1, 3), (2, 7), (1, 11)] {
        let opts = SocketOptions {
            kill: Some((host, KillAt::AfterOps(after_ops))),
        };
        let (w, h, report, mut s) = run_gnmf(opts);
        assert!(
            report.recovery.recovery_rounds >= 1,
            "host {host} after {after_ops} ops: a real worker died, recovery must have run"
        );
        assert_eq!(
            w, w0,
            "host {host} after {after_ops} ops: W diverged from healthy run"
        );
        assert_eq!(
            h, h0,
            "host {host} after {after_ops} ops: H diverged from healthy run"
        );
        // Recovery strands nothing on the survivors: the shards of every
        // pre-remap value were freed before the coordinator forgot them,
        // replayed intermediates were released again, and what is left is
        // exactly what a healthy run leaves resident.
        assert_eq!(
            s.transport_stats().resident_values,
            healthy_resident,
            "host {host} after {after_ops} ops: values stranded on the survivors"
        );
        // The dead process stays dead; survivors shut down cleanly.
        s.shutdown_transport().unwrap();
    }
}

/// SIGKILL a worker right after a pipelined stage's commands have been
/// written but before any reply is read — the coordinator is
/// mid-exchange with frames in flight. Detection must still be organic
/// (EOF / reaped child), the per-connection sequence numbers must
/// re-synchronise past the aborted stage's stale replies, and recovery
/// must reproduce the healthy run bit-for-bit.
#[test]
fn sigkill_mid_pipelined_stage_recovers_bit_identically() {
    let (w0, h0, healthy_report, mut healthy) = run_gnmf(SocketOptions::default());
    assert!(!healthy_report.recovery.any());
    healthy.shutdown_transport().unwrap();

    for (host, stage) in [(1, 5), (2, 12)] {
        let opts = SocketOptions {
            kill: Some((host, KillAt::MidStage(stage))),
        };
        let (w, h, report, mut s) = run_gnmf(opts);
        assert!(
            report.recovery.recovery_rounds >= 1,
            "host {host} killed mid-stage {stage}: recovery must have run"
        );
        assert_eq!(w, w0, "host {host} mid-stage {stage}: W diverged");
        assert_eq!(h, h0, "host {host} mid-stage {stage}: H diverged");
        s.shutdown_transport().unwrap();
    }
}

/// SIGKILL a worker right after `xfer` routing plans go out — direct
/// worker-to-worker pushes toward (or from) the dead process are in
/// flight. The surviving source's `peerfail` report (or the dead
/// worker's silence) must fold into the same organic `WorkerLost` path,
/// and lineage recovery must reproduce the healthy run bit-for-bit.
#[test]
fn sigkill_mid_peer_transfer_recovers_bit_identically() {
    let (w0, h0, _, mut healthy) = run_gnmf(SocketOptions::default());
    healthy.shutdown_transport().unwrap();

    for (host, xfer) in [(1, 1), (2, 2)] {
        let opts = SocketOptions {
            kill: Some((host, KillAt::MidXfer(xfer))),
        };
        let (w, h, report, mut s) = run_gnmf(opts);
        assert!(
            report.recovery.recovery_rounds >= 1,
            "host {host} killed mid-xfer {xfer}: recovery must have run"
        );
        assert_eq!(w, w0, "host {host} mid-xfer {xfer}: W diverged");
        assert_eq!(h, h0, "host {host} mid-xfer {xfer}: H diverged");
        s.shutdown_transport().unwrap();
    }
}

/// A random source is generated where it lives, after a remap too. A
/// steady PageRank run's first primitive is the RMM1 of the fresh `rank0`
/// with the cached `link`; the planner has `rank0` generated broadcast,
/// so every worker makes all of it in that primitive's exchange (a
/// healthy steady run installs nothing). Host 1 is SIGKILLed as the next
/// primitive begins. Lineage replay regenerates `rank0(b)` on the
/// survivors to redo the RMM1: the remap installs the bound `link` and `D`
/// again, once each, and nothing of `rank0` — which was installed twice
/// while the coordinator shipped random sources. The rank is bit-identical to the healthy run's, read back
/// from the workers' own shards as well.
#[test]
fn a_random_source_is_regenerated_on_the_survivors() {
    let nodes = 48;
    let g = dmac::data::powerlaw_graph(nodes, 320, 8, 5);
    let cfg = PageRank {
        nodes,
        link_sparsity: 320.0 / (nodes as f64 * nodes as f64),
        damping: 0.85,
        iterations: 3,
    };
    let mut healthy = socket_session(SocketOptions::default(), 3);
    cfg.run(&mut healthy, &g).unwrap();
    let first = healthy.transport_stats();
    let (report, h) = cfg.run(&mut healthy, &g).unwrap();
    assert_eq!(healthy.transport_stats().install_bytes, first.install_bytes);
    assert_eq!(report.trace.steps[0].kind, "RMM1", "of rank0(b) and link");
    let want = bits(healthy.value(h.rank).unwrap());
    healthy.shutdown_transport().unwrap();

    let opts = SocketOptions {
        kill: Some((1, KillAt::AfterOps(first.ops + 2))),
    };
    let mut s = socket_session(opts, 3);
    cfg.run(&mut s, &g).unwrap();
    let before = s.transport_stats();
    let (report, h) = cfg.run(&mut s, &g).unwrap();
    let after = s.transport_stats();
    assert_eq!(report.recovery.recovery_rounds, 1);
    assert_eq!(report.recovery.refetched_sources, 3, "link, D and rank0");
    let link = dmac::data::row_normalize(&g).unwrap().actual_bytes() as u64;
    let d = 8 * nodes as u64;
    assert_eq!(after.install_bytes - before.install_bytes, link + d);
    assert_eq!(bits(s.value(h.rank).unwrap()), want);
    let physical = s.value_physical(h.rank).unwrap().expect("socket backend");
    assert_eq!(bits(physical), want, "worker-held rank");
    s.shutdown_transport().unwrap();
}

/// With recovery disabled, a real process death surfaces through the
/// same typed exhaustion error the simulator's injector produces — never
/// a panic or hang. (The underlying detection is `WorkerLost`, exactly
/// as for injected faults.)
#[test]
fn sigkill_without_recovery_is_typed_worker_lost() {
    let cfg = gnmf_cfg();
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 8, 5);
    let opts = SocketOptions {
        kill: Some((1, KillAt::AfterOps(4))),
    };
    let mut s = socket_session(opts, 0);
    let err = cfg.run(&mut s, v).unwrap_err();
    match err {
        CoreError::RecoveryExhausted { worker, .. } => assert_eq!(worker, 1),
        CoreError::Cluster(ClusterError::WorkerLost(h)) => assert_eq!(h, 1),
        other => panic!("expected a typed worker-loss error for host 1, got {other:?}"),
    }
    // The session (and its transport Drop) must still tear down the
    // surviving children without leaking them past the test.
    drop(s);
}

/// Killing a worker *between* runs is detected by the next operation's
/// liveness poll, and the session keeps working on the survivors. The
/// rerun re-binds the identical `V`, which keeps its store entry and rid —
/// but the remap made the transport forget every rid, so the kept entry's
/// shards are installed again under the new assignment: the workers' own
/// copy of the result is bit-identical, and nothing is stranded or
/// missing — the resident set is what two healthy runs leave, and stays
/// there on a further identical re-bind.
#[test]
fn kill_between_runs_is_detected_and_survivable() {
    let cfg = gnmf_cfg();
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 8, 5);
    let mut healthy = socket_session(SocketOptions::default(), 3);
    cfg.run(&mut healthy, v.clone()).unwrap();
    cfg.run(&mut healthy, v.clone()).unwrap();
    let healthy_resident = healthy.transport_stats().resident_values;
    healthy.shutdown_transport().unwrap();

    let mut s = socket_session(SocketOptions::default(), 3);
    let (_, first) = cfg.run(&mut s, v.clone()).unwrap();
    let w_before = bits(s.value(first.w).unwrap());

    assert!(
        s.cluster_mut().debug_kill_host(2),
        "host 2 must be killable"
    );
    for rerun in 1..=2 {
        let (report, h) = cfg.run(&mut s, v.clone()).unwrap();
        assert_eq!(
            report.recovery.recovery_rounds >= 1,
            rerun == 1,
            "rerun {rerun}: the dead host is noticed and recovered from once"
        );
        assert_eq!(
            bits(s.value(h.w).unwrap()),
            w_before,
            "rerun {rerun} diverged"
        );
        let physical = s.value_physical(h.w).unwrap().expect("socket backend");
        assert_eq!(
            bits(physical),
            w_before,
            "rerun {rerun}: worker-held W diverged"
        );
        assert_eq!(
            s.transport_stats().resident_values,
            healthy_resident,
            "rerun {rerun}: shards stranded on or missing from the survivors"
        );
    }
    s.shutdown_transport().unwrap();
}

/// SIGKILL a worker as the fused W-update begins — the step that consumes
/// all three of its leaves. The engine has already handed them to the
/// primitive, so recovery rebuilds them through lineage on the survivors.
/// The factors must match the in-process oracle bit for bit, every step's
/// socket payload must equal the oracle's metered bytes, and after the
/// run the workers hold exactly what a healthy run leaves resident.
#[test]
fn sigkill_at_a_consuming_fused_step_recovers_bit_identically() {
    let cfg = Gnmf {
        rows: 256,
        cols: 48,
        ..gnmf_cfg()
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 8, 5);
    let run = |mut s: Session| {
        let (report, h) = cfg.run(&mut s, v.clone()).unwrap();
        let w = bits(s.value(h.w).unwrap());
        let hh = bits(s.value(h.h).unwrap());
        (w, hh, report, s)
    };
    let oracle = Session::builder()
        .system(SystemKind::Dmac)
        .workers(3)
        .local_threads(2)
        .block_size(8)
        .seed(7)
        .build();
    let (w0, h0, _, _) = run(oracle);
    let (_, _, healthy, mut s) = run(socket_session(SocketOptions::default(), 3));
    let healthy_resident = s.transport_stats().resident_values;
    s.shutdown_transport().unwrap();

    // The first fused step's primitive is the n-th the workers mirror:
    // every span is one — a `free` releases a value they hold — but a
    // move its source already satisfied.
    let mut mirrored = 0u64;
    let fused = healthy
        .trace
        .steps
        .iter()
        .find_map(|st| {
            for sp in &st.spans {
                if sp.label.ends_with("(noop)") {
                    continue;
                }
                mirrored += 1;
                if sp.op == "fused" {
                    return Some(st.step);
                }
            }
            None
        })
        .expect("the W-update is fused at this scale");

    let opts = SocketOptions {
        kill: Some((1, KillAt::AfterOps(mirrored))),
    };
    let (w, h, report, mut s) = run(socket_session(opts, 3));
    assert!(
        report.recovery.recovery_rounds >= 1,
        "recovery must have run"
    );
    assert!(
        report.trace.steps[fused].spans.iter().any(|sp| sp.recovery),
        "the loss is caught at the fused step {fused}"
    );
    assert_eq!(w, w0, "W diverged from the oracle");
    assert_eq!(h, h0, "H diverged from the oracle");
    for st in &report.trace.steps {
        assert_eq!(st.transport_bytes, st.wire_bytes, "step {}", st.step);
    }
    assert_eq!(
        s.transport_stats().resident_values,
        healthy_resident,
        "values stranded on the survivors"
    );
    s.shutdown_transport().unwrap();
}
