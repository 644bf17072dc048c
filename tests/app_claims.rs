//! The paper's per-application claims, as executable assertions at test
//! scale: communication comparisons (§6.2, §6.4), plan shapes (Figure 3),
//! and the loop-invariant caching behaviour DMac's speedups come from.

use dmac::apps::{CollaborativeFiltering, Gnmf, LinearRegression, PageRank, SvdLanczos};
use dmac::core::baselines::SystemKind;
use dmac::core::plan::PlanStep;
use dmac::core::{stage, Session};
use dmac::lang::Program;

const BLOCK: usize = 16;

fn session(system: SystemKind) -> Session {
    Session::builder()
        .system(system)
        .workers(4)
        .local_threads(2)
        .block_size(BLOCK)
        .build()
}

/// §6.2: GNMF on DMac moves a small fraction of SystemML-S's bytes (the
/// paper measures ~26×; at test scale we require at least 4×).
#[test]
fn gnmf_comm_is_a_fraction_of_systemml() {
    let cfg = Gnmf {
        rows: 270,
        cols: 120,
        sparsity: 0.05,
        rank: 8,
        iterations: 4,
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, BLOCK, 3);
    let mut bytes = Vec::new();
    for system in [SystemKind::Dmac, SystemKind::SystemMlS] {
        let mut s = session(system);
        let (report, _) = cfg.run(&mut s, v.clone()).unwrap();
        bytes.push(report.comm.total_bytes());
    }
    // The paper measures ~26x at Netflix scale; at this tiny test scale
    // the loop-carried factor matrices are proportionally larger, so the
    // reduction compresses (fig6 reproduces ~15x at bench scale).
    assert!(
        bytes[0] * 3 <= bytes[1],
        "DMac {} vs SystemML-S {}: expected >= 3x reduction",
        bytes[0],
        bytes[1]
    );
}

/// §6.4 (PageRank): after the first iteration, DMac's per-iteration
/// traffic is flat and small — only the rank vector moves, never the link
/// matrix.
#[test]
fn pagerank_steady_state_traffic_excludes_link_matrix() {
    let nodes = 160;
    let g = dmac::data::powerlaw_graph(nodes, 1200, BLOCK, 5);
    let cfg = PageRank {
        nodes,
        link_sparsity: 1200.0 / (nodes as f64 * nodes as f64),
        damping: 0.85,
        iterations: 6,
    };
    let mut s = session(SystemKind::Dmac);
    let (report, _) = cfg.run(&mut s, &g).unwrap();
    let link_bytes = dmac::data::row_normalize(&g).unwrap().actual_bytes() as u64;
    // Steady-state iterations (beyond the first) move far less than the
    // link matrix, and all move the same amount.
    let steady: Vec<u64> = report.per_phase[1..]
        .iter()
        .map(|p| p.total_bytes())
        .collect();
    for (i, &b) in steady.iter().enumerate() {
        assert!(
            b < link_bytes / 2,
            "iteration {}: moved {b} bytes vs link {link_bytes}",
            i + 2
        );
        assert_eq!(b, steady[0], "steady-state traffic must be flat");
    }
}

/// A graph cut into tiles is mostly near-empty tiles, and a near-empty CSC
/// tile must not pay for the columns it does not have. This is the repo
/// benchmark's PageRank graph at an eighth of its side and the same 16
/// edges per 128 × 128 tile: 12 bytes an edge are the item itself, and the
/// column structure around it stays under another 12. With a pointer for
/// every column of every tile it held 44 bytes an edge.
#[test]
fn hypersparse_link_tiles_hold_under_24_bytes_per_edge() {
    let g = dmac::data::powerlaw_graph(2048, 4096, 128, 18);
    let link = dmac::data::row_normalize(&g).unwrap();
    let per_edge = link.actual_bytes() as f64 / link.nnz() as f64;
    assert!(
        link.nnz() > 4000 && per_edge <= 24.0,
        "{} bytes for {} edges: {per_edge:.1} B/edge",
        link.actual_bytes(),
        link.nnz()
    );
}

/// §6.4 (Linear Regression): DMac partitions `V` exactly once for the
/// whole computation; SystemML-S repartitions it every iteration.
#[test]
fn linreg_partitions_v_once() {
    let cfg = LinearRegression {
        rows: 240,
        features: 60,
        sparsity: 0.1,
        lambda: 1e-6,
        iterations: 5,
    };
    let count_v_partitions = |system: SystemKind| -> usize {
        let s = Session::builder()
            .system(system)
            .workers(4)
            .block_size(BLOCK)
            .build();
        let mut p = Program::new();
        let handles = cfg.build(&mut p).unwrap();
        let plan = s.plan_only(&p).unwrap();
        plan.steps
            .iter()
            .filter(|st| match st {
                PlanStep::Partition { out, .. } | PlanStep::Broadcast { out, .. } => {
                    plan.nodes[*out].matrix == handles.v.id
                }
                _ => false,
            })
            .count()
    };
    let dmac = count_v_partitions(SystemKind::Dmac);
    let sysml = count_v_partitions(SystemKind::SystemMlS);
    assert_eq!(dmac, 1, "DMac must partition V exactly once");
    assert!(
        sysml >= 2 * cfg.iterations,
        "SystemML-S repartitions V every iteration (got {sysml})"
    );
}

/// §6.4 (Collaborative Filtering): with Re-assignment, DMac's CF plan
/// broadcasts R once and runs both multiplications as RMM — total
/// communication ≈ N·|R|, and strictly below SystemML-S.
#[test]
fn cf_plan_broadcasts_r_once_and_beats_systemml() {
    let cfg = CollaborativeFiltering {
        items: 120,
        users: 200,
        sparsity: 0.05,
    };
    let r = dmac::data::uniform_sparse(cfg.items, cfg.users, cfg.sparsity, BLOCK, 7);
    let mut totals = Vec::new();
    for system in [SystemKind::Dmac, SystemKind::SystemMlS] {
        let mut s = session(system);
        let (report, _) = cfg.run(&mut s, r.clone()).unwrap();
        totals.push(report.comm.total_bytes());
        if system == SystemKind::Dmac {
            // no CPMM in the plan: both multiplies are replication-based
            let mut p = Program::new();
            cfg.build(&mut p).unwrap();
            let plan = s.plan_only(&p).unwrap();
            let cpmms = plan
                .steps
                .iter()
                .filter(|st| matches!(st, PlanStep::Compute { strategy, .. } if strategy.output_communicates()))
                .count();
            assert_eq!(cpmms, 0, "CF must avoid CPMM:\n{}", plan.explain(&p));
        }
    }
    assert!(
        totals[0] < totals[1],
        "DMac {} vs SysML {}",
        totals[0],
        totals[1]
    );
}

/// SVD and linear regression share the double-multiplication core; both
/// must beat SystemML-S on bytes moved.
#[test]
fn svd_moves_less_than_systemml() {
    let cfg = SvdLanczos {
        rows: 200,
        cols: 64,
        sparsity: 0.1,
        rank: 5,
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, BLOCK, 9);
    let mut bytes = Vec::new();
    let mut spectra = Vec::new();
    for system in [SystemKind::Dmac, SystemKind::SystemMlS] {
        let mut s = session(system);
        let (report, sv) = cfg.run(&mut s, v.clone()).unwrap();
        bytes.push(report.comm.total_bytes());
        spectra.push(sv);
    }
    assert!(bytes[0] < bytes[1]);
    // and the two systems agree on the spectrum
    for (a, b) in spectra[0].iter().zip(spectra[1].iter()) {
        assert!((a - b).abs() < 1e-6 * a.abs().max(1.0), "{spectra:?}");
    }
}

/// Figure 3: the GNMF first-iteration plan at full Netflix dimensions
/// stages cleanly, uses every extended operator the figure shows, and
/// broadcasts the small factor matrices rather than partitioning V more
/// than once.
#[test]
fn gnmf_netflix_scale_plan_shape() {
    let cfg = Gnmf {
        rows: 480_189,
        cols: 17_770,
        sparsity: 0.0117,
        rank: 200,
        iterations: 1,
    };
    let s = Session::builder().workers(4).block_size(100_000).build();
    let mut p = Program::new();
    let handles = cfg.build(&mut p).unwrap();
    let plan = s.plan_only(&p).unwrap();
    let stages = stage::schedule(&plan);
    stage::validate(&plan, &stages).unwrap();
    assert!(
        (4..=8).contains(&stages.count),
        "expected ~5 stages (paper Figure 3), got {}:\n{}",
        stages.count,
        plan.explain(&p)
    );
    // V is partitioned exactly once and never broadcast (it is the big one).
    let v_id = handles.v.id;
    let v_partitions = plan
        .steps
        .iter()
        .filter(
            |st| matches!(st, PlanStep::Partition { out, .. } if plan.nodes[*out].matrix == v_id),
        )
        .count();
    let v_broadcasts = plan
        .steps
        .iter()
        .filter(
            |st| matches!(st, PlanStep::Broadcast { out, .. } if plan.nodes[*out].matrix == v_id),
        )
        .count();
    assert_eq!(v_partitions, 1, "{}", plan.explain(&p));
    assert_eq!(v_broadcasts, 0, "{}", plan.explain(&p));
    // The free dependencies all appear, as in Figure 3: Transpose as a
    // view an operand reads through, Extract as a step.
    assert!(plan
        .steps
        .iter()
        .any(|s| s.operands().iter().any(|o| o.transposed)));
    assert!(plan
        .steps
        .iter()
        .any(|s| matches!(s, PlanStep::Extract { .. })));
}
