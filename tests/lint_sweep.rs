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

use dmac::analyze::{lint_program, lint_script, verify_planned, Severity};
use dmac::apps::{
    CollaborativeFiltering, Gnmf, LinearRegression, PageRank, SvdLanczos, TriangleCount,
};
use dmac::core::planner::{plan_program, plan_with_forced_profiled, PlannerConfig};
use dmac::lang::{parse_script, BinOp, OpKind, Program};

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

fn planner_configs() -> [(&'static str, PlannerConfig); 4] {
    [
        ("dmac", PlannerConfig::default()),
        ("systemml-s", PlannerConfig::systemml_s()),
        (
            "no-cpmm",
            PlannerConfig {
                allow_cpmm: false,
                ..PlannerConfig::default()
            },
        ),
        (
            "no-pullup",
            PlannerConfig {
                pull_up_broadcast: false,
                ..PlannerConfig::default()
            },
        ),
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
