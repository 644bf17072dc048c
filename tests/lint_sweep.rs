//! The static-analysis sweep: every application program in `dmac-apps`
//! and every script under `examples/scripts/` goes through the
//! `dmac-analyze` lints, then each planner output is re-verified by the
//! independent plan-invariant verifier under four planner configurations
//! (full DMac, SystemML-S, CPMM off, Pull-Up Broadcast off) and — for GNMF
//! and PageRank — with each of the three multiplication strategies
//! *forced* on their first matmul.
//!
//! Zero error-severity diagnostics, zero verifier disagreements; warnings
//! do not fail the sweep.

use std::collections::HashMap;

use dmac::analyze::{code, lint_program, lint_script, verify_planned, Severity};
use dmac::apps::{
    CollaborativeFiltering, Gnmf, LinearRegression, PageRank, SvdLanczos, TriangleCount,
};
use dmac::core::planner::{plan_program, plan_with_forced_profiled, PlannerConfig};
use dmac::core::Session;
use dmac::lang::{parse_script, BinOp, OpKind, Program};
use dmac::matrix::BlockedMatrix;

const WORKERS: usize = 8;

/// Each evaluation program at small-but-representative sizes.
fn app_programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    let mut push = |name: &str, build: &dyn Fn(&mut Program)| {
        let mut p = Program::new();
        build(&mut p);
        out.push((name.to_string(), p));
    };
    push("gnmf", &|p| {
        let h = Gnmf {
            rows: 2_700,
            cols: 100,
            sparsity: 0.0117,
            rank: 16,
            iterations: 3,
        }
        .build(p)
        .unwrap();
        p.store(h.w, "W");
        p.store(h.h, "H");
    });
    push("pagerank", &|p| {
        let h = PageRank {
            nodes: 4_000,
            link_sparsity: 0.001,
            damping: 0.85,
            iterations: 3,
        }
        .build(p)
        .unwrap();
        p.store(h.rank, "rank");
    });
    push("cf", &|p| {
        CollaborativeFiltering {
            items: 1_000,
            users: 4_000,
            sparsity: 0.01,
        }
        .build(p)
        .unwrap();
    });
    push("linreg", &|p| {
        LinearRegression {
            rows: 3_000,
            features: 100,
            sparsity: 0.05,
            lambda: 0.01,
            iterations: 3,
        }
        .build(p)
        .unwrap();
    });
    push("svd", &|p| {
        SvdLanczos {
            rows: 2_000,
            cols: 400,
            sparsity: 0.01,
            rank: 4,
        }
        .build(p)
        .unwrap();
    });
    push("triangles", &|p| {
        TriangleCount {
            nodes: 2_000,
            sparsity: 0.002,
        }
        .build(p)
        .unwrap();
    });
    out
}

/// The checked-in example scripts, linted at source level and parsed.
fn script_programs() -> Vec<(String, Program)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scripts");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "dmac"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no scripts under {}", dir.display());
    paths
        .iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(path).unwrap();
            let report = lint_script(&src);
            assert!(
                !report.has_errors(),
                "{name}: {:?}",
                report
                    .diagnostics
                    .iter()
                    .map(|d| d.headline())
                    .collect::<Vec<_>>()
            );
            (name, parse_script(&src).unwrap().program)
        })
        .collect()
}

fn planner_configs() -> [(&'static str, PlannerConfig); 2] {
    [
        ("dmac", PlannerConfig::default()),
        ("systemml-s", PlannerConfig::systemml_s()),
    ]
}

#[test]
fn every_program_lints_clean_and_verifies_under_every_config() {
    let mut programs = app_programs();
    programs.extend(script_programs());
    for (name, program) in &programs {
        let errors: Vec<String> = lint_program(program)
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.headline())
            .collect();
        assert!(errors.is_empty(), "{name}: {errors:?}");
        for (cname, cfg) in planner_configs() {
            let planned = plan_program(program, &cfg, WORKERS, &HashMap::new())
                .unwrap_or_else(|e| panic!("{name} / {cname}: plan: {e}"));
            let s = verify_planned(program, &planned, &cfg, WORKERS)
                .unwrap_or_else(|m| panic!("{name} / {cname}: {m}"));
            assert_eq!(s.recomputed_comm, planned.estimated_comm);
        }
    }
}

#[test]
fn forced_strategies_verify_on_gnmf_and_pagerank() {
    let cfg = PlannerConfig::default();
    for (name, program) in app_programs()
        .into_iter()
        .filter(|(n, _)| n == "gnmf" || n == "pagerank")
    {
        let first_matmul = program
            .ops()
            .iter()
            .position(|op| {
                matches!(
                    op.kind,
                    OpKind::Binary {
                        op: BinOp::MatMul,
                        ..
                    }
                )
            })
            .expect("app has a matmul");
        for choice in 0..3usize {
            let forced = HashMap::from([(first_matmul, choice)]);
            let planned = plan_with_forced_profiled(
                &program,
                &cfg,
                WORKERS,
                &HashMap::new(),
                &HashMap::new(),
                Some(&forced),
            )
            .unwrap_or_else(|e| panic!("{name} choice {choice}: plan: {e}"));
            verify_planned(&program, &planned, &cfg, WORKERS)
                .unwrap_or_else(|m| panic!("{name} choice {choice}: {m}"));
        }
    }
}

/// `PageRank::build` makes the teleport `D * (1 - damping)` once, before
/// the loop — the hoist I201 asks for. Against the program that scales `D`
/// again in every iteration (the shape `build` had, rebuilt here as the
/// reference): no I201 left, the same rank bits — every iteration added
/// the identical vector — and no higher a residency peak.
#[test]
fn pagerank_hoists_the_teleport_without_moving_a_bit() {
    let pr = PageRank {
        nodes: 96,
        link_sparsity: 0.1,
        damping: 0.85,
        iterations: 5,
    };
    let mut hoisted = Program::new();
    pr.build(&mut hoisted).unwrap();
    let mut per_iteration = Program::new();
    {
        let p = &mut per_iteration;
        let link = p.load("link", pr.nodes, pr.nodes, pr.link_sparsity);
        let d = p.load("D", 1, pr.nodes, 1.0);
        let mut rank = p.random("rank0", 1, pr.nodes);
        for i in 0..pr.iterations {
            p.set_phase(i);
            let walk = p.matmul(rank, link).unwrap();
            let damped = p.scale_const(walk, pr.damping).unwrap();
            let teleport = p.scale_const(d, 1.0 - pr.damping).unwrap();
            rank = p.add(damped, teleport).unwrap();
        }
        p.store(rank, "rank");
    }
    let invariants = |p: &Program| {
        let found = lint_program(p);
        found
            .iter()
            .filter(|d| d.code == code::LOOP_INVARIANT)
            .count()
    };
    assert_eq!(
        invariants(&per_iteration),
        1,
        "the reference is the old shape"
    );
    assert_eq!(invariants(&hoisted), 0);
    assert_eq!(
        hoisted.ops().len() + pr.iterations - 1,
        per_iteration.ops().len()
    );

    for seed in [3u64, 17, 40] {
        let adj = dmac::data::powerlaw_graph(pr.nodes, 900, 8, seed);
        let link = dmac::data::row_normalize(&adj).unwrap();
        let d = BlockedMatrix::from_fn(1, pr.nodes, 8, |_, _| 1.0 / pr.nodes as f64).unwrap();
        let run = |program: &Program| {
            let mut s = Session::builder()
                .workers(4)
                .local_threads(2)
                .block_size(8)
                .seed(seed)
                .build();
            s.bind("link", link.clone()).unwrap();
            s.bind("D", d.clone()).unwrap();
            let report = s.run(program).unwrap();
            let rank = s.env_value("rank").unwrap().to_dense();
            let bits: Vec<u64> = rank.data().iter().map(|v| v.to_bits()).collect();
            (bits, report.trace.peak_resident(), report.trace.steps.len())
        };
        let (bits, peak, steps) = run(&hoisted);
        let (old_bits, old_peak, old_steps) = run(&per_iteration);
        assert_eq!(bits, old_bits, "seed {seed}: a rank bit moved");
        assert!(peak <= old_peak, "seed {seed}: peak {peak} > {old_peak}");
        assert!(
            steps < old_steps,
            "seed {seed}: {steps} steps, {old_steps} before"
        );
    }
}
