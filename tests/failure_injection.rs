//! Fault-tolerance integration tests: deterministic fault injection,
//! lineage-based stage recovery, and the recovery-cost accounting.
//!
//! The load-bearing claims exercised here:
//!
//! * a worker killed at **any** stage of GNMF or PageRank is recovered
//!   automatically and the final results are **bit-for-bit identical** to
//!   the healthy run (logical workers are remapped, never renumbered, so
//!   every f64 summation order is unchanged);
//! * the same fault seed yields the same failure schedule, the same
//!   recovery cost counters, and the same results — failures are
//!   replayable;
//! * exhausted recovery budgets surface the typed
//!   [`CoreError::RecoveryExhausted`], never a panic;
//! * liveness is checked before argument validation uniformly across all
//!   primitives, so a dead worker always yields `WorkerLost`.

use dmac::apps::{Gnmf, PageRank};
use dmac::cluster::{
    Cluster, ClusterConfig, ClusterError, FaultPlan, NetworkModel, PartitionScheme,
};
use dmac::core::baselines::SystemKind;
use dmac::core::{CoreError, Session};
use dmac::lang::Program;
use dmac::matrix::{BlockedMatrix, SplitMix64};

fn sample() -> BlockedMatrix {
    BlockedMatrix::from_fn(16, 16, 4, |i, j| (i * 16 + j) as f64).unwrap()
}

fn gnmf_cfg() -> Gnmf {
    Gnmf {
        rows: 24,
        cols: 18,
        sparsity: 0.4,
        rank: 4,
        iterations: 2,
    }
}

fn gnmf_session(plan: Option<FaultPlan>) -> Session {
    let mut b = Session::builder()
        .workers(3)
        .local_threads(1)
        .block_size(8)
        .seed(7);
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    b.build()
}

/// Run GNMF under an optional fault plan; returns the dense factors and
/// the execution report.
fn run_gnmf(plan: Option<FaultPlan>) -> (Vec<f64>, Vec<f64>, dmac::core::engine::ExecReport) {
    let cfg = gnmf_cfg();
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 8, 5);
    let mut s = gnmf_session(plan);
    let (report, handles) = cfg.run(&mut s, v).unwrap();
    let w = s.value(handles.w).unwrap().to_dense().data().to_vec();
    let h = s.value(handles.h).unwrap().to_dense().data().to_vec();
    (w, h, report)
}

#[test]
fn lost_worker_fails_every_primitive_with_worker_lost() {
    let mut cl = Cluster::new(ClusterConfig {
        workers: 3,
        local_threads: 1,
        network: NetworkModel::infinite(),
    });
    let d = cl.load(&sample(), PartitionScheme::Row);
    let view = dmac::cluster::View {
        m: &d,
        transposed: true,
    };
    cl.fail_worker(2);
    // Liveness precedes validation in every primitive: cpmm gets operands
    // in the wrong scheme here, yet must still report the dead worker —
    // and it precedes resolving a view.
    for result in [
        cl.repartition(d.clone(), PartitionScheme::Col, "m")
            .map(|_| ()),
        cl.broadcast(d.clone(), "m").map(|_| ()),
        cl.cpmm(view, view, PartitionScheme::Row).map(|_| ()),
        cl.cpmm(&d, &d, PartitionScheme::Row).map(|_| ()),
        cl.rmm1(&d, &d).map(|_| ()),
        cl.rmm2(&d, &d).map(|_| ()),
    ] {
        match result {
            Err(ClusterError::WorkerLost(2)) => {}
            other => panic!("expected WorkerLost(2), got {other:?}"),
        }
    }
}

#[test]
fn session_with_recovery_disabled_fails_cleanly_and_recovers_after_heal() {
    let mut s = Session::builder()
        .system(SystemKind::Dmac)
        .workers(3)
        .local_threads(1)
        .block_size(4)
        .recovery_attempts(0) // fail-fast: the pre-recovery contract
        .build();
    s.bind("A", sample()).unwrap();

    let mut p = Program::new();
    let a = p.load("A", 16, 16, 1.0);
    let b = p.matmul(a, a.t()).unwrap();
    p.output(b);

    // First attempt with a dead worker: typed failure, no panic.
    s.cluster_mut().fail_worker(1);
    match s.run(&p) {
        Err(CoreError::RecoveryExhausted { worker: 1, .. }) => {}
        other => panic!("expected RecoveryExhausted for worker 1, got {other:?}"),
    }

    // Heal and retry: the identical program completes and the result is
    // exactly what a healthy cluster computes.
    s.cluster_mut().heal_worker(1);
    s.run(&p).expect("healed cluster must succeed");
    let got = s.value(b).unwrap();
    let m = sample();
    let expect = m.matmul_reference(&m.transpose()).unwrap();
    assert_eq!(got.to_dense(), expect.to_dense());
}

#[test]
fn failure_mid_session_does_not_corrupt_environment() {
    let mut s = Session::builder()
        .workers(2)
        .local_threads(1)
        .block_size(4)
        .recovery_attempts(0)
        .build();
    s.bind("A", sample()).unwrap();

    // Successful first run stores B.
    let mut p1 = Program::new();
    let a = p1.load("A", 16, 16, 1.0);
    let b = p1.add(a, a).unwrap();
    p1.store(b, "B");
    s.run(&p1).unwrap();

    // Failed second run must leave B (and A) usable.
    let mut p2 = Program::new();
    let eb = p2.load("B", 16, 16, 1.0);
    let c = p2.matmul(eb, eb).unwrap();
    p2.output(c);
    s.cluster_mut().fail_worker(0);
    assert!(s.run(&p2).is_err());
    s.cluster_mut().heal_worker(0);
    s.run(&p2).unwrap();
    let got = s.value(c).unwrap();
    let twice = sample().scale(2.0);
    let expect = twice.matmul_reference(&twice).unwrap();
    assert_eq!(got.to_dense(), expect.to_dense());
}

#[test]
fn gnmf_survives_a_kill_at_every_stage_bit_for_bit() {
    let (w_ok, h_ok, healthy) = run_gnmf(None);
    assert!(
        !healthy.recovery.any(),
        "healthy run must report no failures"
    );
    assert!(healthy.stage_count > 2, "sweep needs stages to kill at");

    for stage in 0..healthy.stage_count {
        let plan = FaultPlan::kill_stage(stage, 0xC0FFEE + stage as u64);
        let (w, h, report) = run_gnmf(Some(plan));
        let rec = report.recovery;
        assert_eq!(
            rec.worker_failures, 1,
            "stage {stage}: exactly one injected loss"
        );
        assert!(rec.recovery_rounds >= 1, "stage {stage}: recovery ran");
        assert!(
            rec.refetched_sources > 0 || rec.replayed_steps > 0,
            "stage {stage}: lineage rebuilt something"
        );
        assert!(
            rec.recovery_bytes > 0,
            "stage {stage}: recovery traffic metered"
        );
        assert!(
            rec.recovery_sec > 0.0,
            "stage {stage}: recovery charged to the clock"
        );
        assert_eq!(w, w_ok, "stage {stage}: W must match healthy run exactly");
        assert_eq!(h, h_ok, "stage {stage}: H must match healthy run exactly");
    }
}

#[test]
fn pagerank_survives_a_kill_at_every_stage_bit_for_bit() {
    let cfg = PageRank {
        nodes: 40,
        link_sparsity: 0.1,
        damping: 0.85,
        iterations: 3,
    };
    let g = dmac::data::powerlaw_graph(cfg.nodes, 160, 8, 3);
    let run = |plan: Option<FaultPlan>| {
        let mut b = Session::builder()
            .workers(3)
            .local_threads(1)
            .block_size(8)
            .seed(5);
        if let Some(plan) = plan {
            b = b.fault_plan(plan);
        }
        let mut s = b.build();
        let (report, handles) = cfg.run(&mut s, &g).unwrap();
        let rank = s.value(handles.rank).unwrap().to_dense().data().to_vec();
        (rank, report.recovery, report.stage_count)
    };

    let (rank_ok, healthy, stage_count) = run(None);
    assert!(!healthy.any());
    // Sanity: the healthy result matches the local reference.
    let link = dmac::data::row_normalize(&g).unwrap();
    let mut p = Program::new();
    let handles = cfg.build(&mut p).unwrap();
    let r0 = cfg.initial_rank(&handles, 8, 5).unwrap();
    let reference = cfg.reference(&link, r0).unwrap();
    assert!(dmac::matrix::approx_eq_slice(&rank_ok, reference.to_dense().data(), 1e-9).is_none());

    for stage in 0..stage_count {
        let (rank, rec, _) = run(Some(FaultPlan::kill_stage(stage, 0xBEEF + stage as u64)));
        assert_eq!(rec.worker_failures, 1, "stage {stage}");
        assert!(rec.recovery_bytes > 0, "stage {stage}");
        assert_eq!(rank, rank_ok, "stage {stage}: rank must be identical");
    }
}

/// Property test: the failure schedule, the recovery cost counters, and
/// the results are a pure function of the fault seed. The explicit seeds
/// at the end pin schedules that exercised interesting paths during
/// development as regression cases.
#[test]
fn fault_schedule_and_results_are_seed_deterministic() {
    let cfg = Gnmf {
        iterations: 1,
        ..gnmf_cfg()
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 8, 5);

    let run = |plan: FaultPlan| {
        let mut s = Session::builder()
            .workers(4)
            .local_threads(1)
            .block_size(8)
            .seed(7)
            .fault_plan(plan)
            .build();
        let (report, handles) = cfg.run(&mut s, v.clone()).unwrap();
        let w = s.value(handles.w).unwrap().to_dense().data().to_vec();
        let log = s.cluster_mut().fault_log().to_vec();
        let rec = report.recovery;
        (
            w,
            log,
            (
                rec.worker_failures,
                rec.recovery_rounds,
                rec.replayed_steps,
                rec.re_executed_stages,
                rec.refetched_sources,
                rec.recovery_bytes,
            ),
            (
                report.comm.shuffle_bytes(),
                report.comm.broadcast_bytes(),
                report.comm.recovery_bytes(),
                report.comm.retry_bytes(),
            ),
        )
    };

    let (w_ok, log_ok, _, _) = run(FaultPlan::none());
    assert!(log_ok.is_empty());

    let mut meta = SplitMix64::new(0x5EED5);
    let mut seeds: Vec<u64> = (0..10).map(|_| meta.next_u64()).collect();
    // Pinned regression seeds: op-kill on the first primitive of a run,
    // and kills landing mid-CPMM aggregation.
    seeds.extend([0xFA17_0001, 0xFA17_0002, 42]);

    for seed in seeds {
        let plan = FaultPlan::random_kills(0.05, seed)
            .with_max_kills(2)
            .with_transient(0.02);
        let a = run(plan);
        let b = run(plan);
        assert_eq!(a.1, b.1, "seed {seed:#x}: fault schedule must replay");
        assert_eq!(a.2, b.2, "seed {seed:#x}: recovery counters must replay");
        assert_eq!(a.3, b.3, "seed {seed:#x}: byte meters must replay");
        assert_eq!(a.0, b.0, "seed {seed:#x}: results must replay");
        // And recovery is transparent: faulty or not, results are exact.
        assert_eq!(a.0, w_ok, "seed {seed:#x}: results must match healthy run");
    }
}

/// Flight-recorder attribution: everything a failure costs — the failed
/// attempt's partial work, lineage replays, source refetches — must land
/// on recovery-flagged spans, leaving the steady-state per-step trace of
/// a faulty run *identical* to the healthy run's. Without the flagging,
/// retried steps would double-count their traffic and every conformance
/// pair downstream of a failure would overshoot.
#[test]
fn recovery_traffic_lands_on_recovery_spans_not_steady_state() {
    let (_, _, healthy) = run_gnmf(None);
    let steady = |r: &dmac::core::engine::ExecReport| {
        r.trace
            .steps
            .iter()
            .map(|s| (s.kind.clone(), s.actual_bytes, s.wire_bytes))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        healthy.trace.recovery_wire_total(),
        0,
        "healthy run must have no recovery traffic"
    );
    assert!(
        healthy
            .trace
            .steps
            .iter()
            .flat_map(|s| &s.spans)
            .all(|sp| !sp.recovery),
        "healthy run must flag no spans"
    );

    for stage in 0..healthy.stage_count {
        let plan = FaultPlan::kill_stage(stage, 0xC0FFEE + stage as u64);
        let (_, _, faulty) = run_gnmf(Some(plan));
        assert_eq!(faulty.recovery.worker_failures, 1, "stage {stage}");

        // The failure left recovery-flagged spans carrying real traffic.
        let flagged: Vec<_> = faulty
            .trace
            .steps
            .iter()
            .flat_map(|s| &s.spans)
            .filter(|sp| sp.recovery)
            .collect();
        assert!(!flagged.is_empty(), "stage {stage}: no spans flagged");
        assert!(
            faulty.trace.recovery_wire_total() > 0,
            "stage {stage}: recovery wire bytes must be attributed"
        );
        // Source refetches are recovery by definition.
        for sp in faulty.trace.steps.iter().flat_map(|s| &s.spans) {
            if sp.op == "refetch" {
                assert!(sp.recovery, "stage {stage}: refetch span not flagged");
            }
        }

        // The load-bearing claim: with recovery traffic separated out,
        // the steady-state trace is bit-for-bit the healthy run's — same
        // step kinds, same event bytes, same wire bytes. Conformance is
        // therefore unaffected by failures.
        assert_eq!(
            steady(&faulty),
            steady(&healthy),
            "stage {stage}: steady-state trace must match the healthy run"
        );
        assert_eq!(
            faulty.trace.actual_total(),
            healthy.trace.actual_total(),
            "stage {stage}"
        );
    }
}

/// Everything the run's ledger says about where bytes went.
#[derive(Debug, PartialEq)]
struct Ledger {
    shuffle: u64,
    broadcast: u64,
    recovery: u64,
    retry: u64,
    retry_events: usize,
    /// `(shuffle, broadcast)` per phase.
    phases: &'static [(u64, u64)],
    recovery_bytes: u64,
}

fn ledger(r: &dmac::core::engine::ExecReport) -> Ledger {
    let phases: Vec<(u64, u64)> = r
        .per_phase
        .iter()
        .map(|p| (p.shuffle_bytes, p.broadcast_bytes))
        .collect();
    Ledger {
        shuffle: r.comm.shuffle_bytes(),
        broadcast: r.comm.broadcast_bytes(),
        recovery: r.comm.recovery_bytes(),
        retry: r.comm.retry_bytes(),
        retry_events: r.comm.retry_events(),
        phases: Vec::leak(phases),
        recovery_bytes: r.recovery.recovery_bytes,
    }
}

/// The accounting recorded before the span buffer became the run's only
/// ledger: a healthy GNMF, two seeds of the random-kill + transient sweep
/// above (both lose two workers; the first also retries two sends), and a
/// stage-5 kill.
/// Bytes must reproduce exactly; the per-phase and recovery seconds must
/// add up to the simulated clock.
///
/// The healthy and stage-5 rows were re-recorded once, when the planner
/// began pricing a Hash-placed input's first placement against the whole
/// program. The two-iteration GNMF now places `V` by row before its first
/// reader (first touch placed it by column), which drops a CPMM and a
/// column-to-row repartition per iteration: shuffle 5 904 → 3 740,
/// broadcast 3 584 → 3 072, per phase (3 600, 1 792), (2 304, 1 792) →
/// (2 332, 1 664), (1 408, 1 408); the stage-5 kill replays on that plan
/// (9 504 / 5 376 / 7 252 → 6 072 / 4 480 / 5 600). The one-iteration
/// seed rows did not move: there the row placement certifies more memory
/// than first touch, so the planner keeps first touch.
///
/// Every row was re-recorded again when a `random` source joined that
/// search, generated in a scheme at no cost. The healthy run generates
/// `W0` by row and `H0` broadcast, where its plan used to move them:
/// broadcast 3 072 → 2 816, phase 0 (2 332, 1 664) → (2 332, 1 408). The one-iteration plan now
/// generates `W` and `H` where their readers want them, so its steady
/// broadcast falls 2 688 → 384 and the seeded kills land on other steps:
/// the first seed's transient faults hit two sends (512 → 1 920 retried
/// bytes), the second's hit none (it used to retry one). The stage-5 kill
/// replays on the new plan (6 072 / 4 480 / 5 600 → 4 664 / 4 224 / 4 192).
///
/// The first seed's row was re-recorded once more when the planner began
/// finishing its search with a coordinate descent over strategies. The
/// one-iteration plan now computes `W %*% (H Hᵀ)` by RMM2: `W` is an
/// extract of its broadcast copy, and the small `H Hᵀ` is broadcast
/// instead of the column partition RMM1 needed. Shuffle 6 432 → 5 920,
/// broadcast 1 152 → 1 536, phase (3 600, 384) → (3 088, 768): 7 584 →
/// 7 456 B in all; its recovery and retries did not move. The second seed
/// runs the same steady plan, but its two kills land on other steps of it
/// and the replays redo more of the lineage: shuffle 6 688 → 7 472,
/// broadcast 768 → 2 304, recovery bytes 7 192 → 9 640 (recovery-kind
/// bytes 3 720 unchanged). The healthy and stage-5 rows did not move: the
/// two-iteration plan is one no flip improves.
///
/// Both seed rows were re-recorded once more when a transpose became a
/// view, not a step. The steady plans keep their bytes and phases, but
/// the `transpose` primitives are gone, and with them the fault draws
/// they entered with: the seeded kills and transient faults land on other
/// steps. The first seed retries no send (1 920 → 0 retried bytes) and
/// replays less (broadcast 1 536 → 1 152, recovery bytes 7 380 → 5 076);
/// the second replays less (shuffle 7 472 → 6 176, broadcast 2 304 →
/// 1 536, recovery bytes 9 640 → 7 576). Recovery-kind bytes, healthy and
/// stage-5 rows did not move.
#[test]
fn accounting_matches_the_recorded_ledgers() {
    const HEALTHY: Ledger = Ledger {
        shuffle: 3740,
        broadcast: 2816,
        recovery: 0,
        retry: 0,
        retry_events: 0,
        phases: &[(2332, 1408), (1408, 1408)],
        recovery_bytes: 0,
    };
    const SEEDS: [(u64, Ledger); 2] = [
        (
            0xc45e_6870_691a_69e5,
            Ledger {
                shuffle: 5920,
                broadcast: 1152,
                recovery: 1860,
                retry: 0,
                retry_events: 0,
                phases: &[(3088, 768)],
                recovery_bytes: 5076,
            },
        ),
        (
            0x16c6_2e9e_56e2_8b01,
            Ledger {
                shuffle: 6176,
                broadcast: 1536,
                recovery: 3720,
                retry: 0,
                retry_events: 0,
                phases: &[(3088, 768)],
                recovery_bytes: 7576,
            },
        ),
    ];
    const STAGE_5: Ledger = Ledger {
        shuffle: 4664,
        broadcast: 4224,
        recovery: 1860,
        retry: 0,
        retry_events: 0,
        phases: &[(2332, 1408), (1408, 1408)],
        recovery_bytes: 4192,
    };
    let seconds_add_up = |r: &dmac::core::engine::ExecReport| {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-300);
        let steady: f64 = r.per_phase.iter().map(|p| p.total_sec()).sum();
        let total = r.sim.total_sec();
        assert!(
            close(steady + r.recovery.recovery_sec, total),
            "{steady} + {} vs {total}",
            r.recovery.recovery_sec
        );
        if !r.recovery.any() {
            let comm: f64 = r.per_phase.iter().map(|p| p.comm_sec).sum();
            let compute: f64 = r.per_phase.iter().map(|p| p.compute_sec).sum();
            assert!(
                close(comm, r.sim.comm_sec()),
                "{comm} vs {}",
                r.sim.comm_sec()
            );
            assert!(close(compute, r.sim.compute_sec()));
        }
    };

    let (_, _, healthy) = run_gnmf(None);
    assert_eq!(ledger(&healthy), HEALTHY);
    seconds_add_up(&healthy);

    let cfg = Gnmf {
        iterations: 1,
        ..gnmf_cfg()
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 8, 5);
    for (seed, want) in SEEDS {
        let plan = FaultPlan::random_kills(0.05, seed)
            .with_max_kills(2)
            .with_transient(0.02);
        let mut s = Session::builder()
            .workers(4)
            .local_threads(1)
            .block_size(8)
            .seed(7)
            .fault_plan(plan)
            .build();
        let (report, _) = cfg.run(&mut s, v.clone()).unwrap();
        assert_eq!(report.recovery.worker_failures, 2, "seed {seed:#x}");
        assert_eq!(ledger(&report), want, "seed {seed:#x}");
        seconds_add_up(&report);
    }

    let (_, _, killed) = run_gnmf(Some(FaultPlan::kill_stage(5, 0xC0FFEE + 5)));
    assert_eq!(killed.recovery.worker_failures, 1);
    assert_eq!(ledger(&killed), STAGE_5);
    seconds_add_up(&killed);
}

#[test]
fn flaky_network_retries_transparently_and_meters_waste() {
    let plan = FaultPlan::none().with_transient(0.3).with_send_attempts(10);
    let (w_ok, h_ok, _) = run_gnmf(None);
    let (w, h, report) = run_gnmf(Some(plan));
    assert_eq!(w, w_ok, "transient failures must not change results");
    assert_eq!(h, h_ok);
    assert!(!report.recovery.any(), "no worker was lost");
    // The waste shows up on the meters instead.
    assert!(report.comm.retry_events() > 0, "retries must be metered");
    assert!(report.comm.retry_bytes() > 0);
}

#[test]
fn exhausted_recovery_budget_is_a_typed_error_not_a_panic() {
    let cfg = gnmf_cfg();
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 8, 5);
    let mut s = Session::builder()
        .workers(4)
        .local_threads(1)
        .block_size(8)
        .fault_plan(FaultPlan::random_kills(1.0, 99).with_max_kills(3))
        .recovery_attempts(1)
        .build();
    s.bind("V", v).unwrap();
    let mut p = Program::new();
    cfg.build(&mut p).unwrap();
    match s.run(&p) {
        Err(CoreError::RecoveryExhausted { attempts: 1, .. }) => {}
        other => panic!("expected RecoveryExhausted, got {other:?}"),
    }

    // The default budget (3 attempts) survives the very same fault plan,
    // and the battered run still produces the healthy answer bit-for-bit.
    let run4 = |plan: Option<FaultPlan>| {
        let mut b = Session::builder()
            .workers(4)
            .local_threads(1)
            .block_size(8)
            .seed(7);
        if let Some(plan) = plan {
            b = b.fault_plan(plan);
        }
        let mut s = b.build();
        let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 8, 5);
        let (report, handles) = cfg.run(&mut s, v).unwrap();
        let w = s.value(handles.w).unwrap().to_dense().data().to_vec();
        (w, report.recovery)
    };
    let (w_ok, _) = run4(None);
    let (w, rec) = run4(Some(FaultPlan::random_kills(1.0, 99).with_max_kills(3)));
    assert_eq!(rec.worker_failures, 3, "every budgeted kill fired");
    assert_eq!(w, w_ok, "three losses later, results are still exact");
}

/// A loss caught where a step consumes its dying inputs. At this scale
/// GNMF's W-update `W * (V Hᵀ) / (W H Hᵀ)` is one fused step that folds
/// both products and frees the two dead values it reads (`W` is a
/// product operand too, so nothing is read tile-wise; `Hᵀ` is a view, no
/// value of its own), and the stage it runs in
/// opens with a broadcast that consumes what it moves; a kill at that stage is caught
/// at that broadcast's entry, before it takes its input, so recovery
/// rebuilds only what the dead host held. The factors must match the healthy run
/// bit for bit, every step's receipt must equal what the oracle metered,
/// and the steady ledger must be the healthy run's.
#[test]
fn a_kill_at_the_fused_update_stage_recovers_bit_identically() {
    let cfg = Gnmf {
        rows: 256,
        cols: 48,
        ..gnmf_cfg()
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 8, 5);
    let run = |plan: Option<FaultPlan>| {
        let mut s = gnmf_session(plan);
        let (report, handles) = cfg.run(&mut s, v.clone()).unwrap();
        let bits = |e| -> Vec<u64> {
            let m = s.value(e).unwrap().to_dense();
            m.data().iter().map(|x| x.to_bits()).collect()
        };
        (bits(handles.w), bits(handles.h), report)
    };
    let (w0, h0, healthy) = run(None);

    // The stage of the first fused step, and the step that opens it, in
    // the plan a fresh session runs.
    let mut s = gnmf_session(None);
    s.bind("V", v.clone()).unwrap();
    let mut p = Program::new();
    cfg.build(&mut p).unwrap();
    let prep = s.prepare(&p).unwrap();
    let plan = prep.plan();
    let stages = dmac::core::stage::schedule(plan);
    let fused = plan
        .steps
        .iter()
        .position(|st| matches!(st, dmac::core::plan::PlanStep::Fused { .. }))
        .expect("the W-update is fused at this scale");
    let releases = plan.releases_at(fused);
    assert_eq!(
        (releases.consumes.len(), releases.frees.len()),
        (0, 2),
        "{}",
        plan.explain(&p)
    );
    let stage = stages.step_stage[fused];
    let opener = (0..plan.steps.len())
        .find(|&i| stages.step_stage[i] == stage)
        .unwrap();
    assert!(
        !plan.releases_at(opener).consumes.is_empty(),
        "stage {stage} opens with a consuming step\n{}",
        plan.explain(&p)
    );
    assert_eq!(healthy.trace.steps.len(), plan.steps.len());

    let (w, h, report) = run(Some(FaultPlan::kill_stage(stage, 0xC0FFEE)));
    assert_eq!(report.recovery.worker_failures, 1);
    assert!(
        report.trace.steps[opener]
            .spans
            .iter()
            .any(|sp| sp.recovery),
        "the loss is caught at the step that opens stage {stage}"
    );
    assert_eq!(w, w0, "W diverged from the healthy run");
    assert_eq!(h, h0, "H diverged from the healthy run");
    for st in &report.trace.steps {
        assert_eq!(st.transport_bytes, st.wire_bytes, "step {}", st.step);
    }
    let steady = |r: &dmac::core::engine::ExecReport| r.trace.wire_total();
    assert_eq!(
        steady(&report),
        steady(&healthy),
        "the steady ledger did not move"
    );
}
