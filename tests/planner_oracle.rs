//! Greedy-vs-optimal validation: on small programs, compare Algorithm 1's
//! greedy plan against an exhaustive search over every per-operator
//! strategy assignment (same dependency machinery, every combination
//! tried). The oracle bounds how much the greedy heuristic leaves on the
//! table and guards against regressions that would make it *worse* than
//! blind enumeration.

use std::collections::HashMap;

use dmac::core::planner::{
    plan_exhaustive, plan_program, plan_with_forced_profiled, PlannerConfig,
};
use dmac::lang::Program;

fn schemes() -> HashMap<dmac::lang::MatrixId, dmac::cluster::PartitionScheme> {
    HashMap::new()
}

/// Exhaustive can never cost more than greedy (it tries greedy's own
/// assignment among all others).
fn assert_greedy_close(p: &Program, label: &str, slack: f64) {
    let greedy = plan_program(p, &PlannerConfig::default(), 4, &schemes()).unwrap();
    let optimal = plan_exhaustive(p, &PlannerConfig::default(), 4, &schemes(), 200_000).unwrap();
    assert!(
        optimal.estimated_comm <= greedy.estimated_comm,
        "{label}: exhaustive {} must be <= greedy {}",
        optimal.estimated_comm,
        greedy.estimated_comm
    );
    assert!(
        greedy.estimated_comm as f64 <= optimal.estimated_comm as f64 * slack + 1.0,
        "{label}: greedy {} exceeds {slack}x the optimum {}",
        greedy.estimated_comm,
        optimal.estimated_comm
    );
}

#[test]
fn gnmf_h_update_is_near_optimal() {
    // Netflix-proportioned H-update: 5 operators, 3^3·3^2 = 243 combos.
    let mut p = Program::new();
    let v = p.load("V", 48_000, 1_770, 0.0117);
    let w = p.random("W", 48_000, 64);
    let h = p.random("H", 64, 1_770);
    let wt_v = p.matmul(w.t(), v).unwrap();
    let wt_w = p.matmul(w.t(), w).unwrap();
    let wt_w_h = p.matmul(wt_w, h).unwrap();
    let num = p.cell_mul(h, wt_v).unwrap();
    let h2 = p.cell_div(num, wt_w_h).unwrap();
    p.output(h2);
    assert_greedy_close(&p, "gnmf-h", 1.6);
}

#[test]
fn cf_program_is_optimal_with_h2() {
    let mut p = Program::new();
    let r = p.load("R", 13_500, 500, 0.0117);
    let sim = p.matmul(r, r.t()).unwrap();
    let result = p.matmul(sim, r).unwrap();
    p.output(result);
    // With Re-assignment the greedy CF plan must match the optimum
    // exactly (this is the paper's §6.4 CF analysis).
    let greedy = plan_program(&p, &PlannerConfig::default(), 4, &schemes()).unwrap();
    let optimal = plan_exhaustive(&p, &PlannerConfig::default(), 4, &schemes(), 10_000).unwrap();
    assert_eq!(
        greedy.estimated_comm, optimal.estimated_comm,
        "CF greedy must equal the optimum"
    );
}

#[test]
fn single_multiplication_is_always_optimal() {
    for (rows, mid, cols) in [(10_000, 100, 100), (100, 10_000, 100), (100, 100, 10_000)] {
        let mut p = Program::new();
        let a = p.load("A", rows, mid, 1.0);
        let b = p.load("B", mid, cols, 1.0);
        let c = p.matmul(a, b).unwrap();
        p.output(c);
        let greedy = plan_program(&p, &PlannerConfig::default(), 4, &schemes()).unwrap();
        let optimal = plan_exhaustive(&p, &PlannerConfig::default(), 4, &schemes(), 100).unwrap();
        assert_eq!(
            greedy.estimated_comm, optimal.estimated_comm,
            "single op {rows}x{mid}x{cols} must be planned optimally"
        );
    }
}

#[test]
fn pagerank_iteration_is_near_optimal() {
    let mut p = Program::new();
    let link = p.load("link", 10_000, 10_000, 0.001);
    let d = p.load("D", 1, 10_000, 1.0);
    let mut rank = p.random("rank", 1, 10_000);
    for i in 0..2 {
        p.set_phase(i);
        let walk = p.matmul(rank, link).unwrap();
        let damped = p.scale_const(walk, 0.85).unwrap();
        let tele = p.scale_const(d, 0.15).unwrap();
        rank = p.add(damped, tele).unwrap();
    }
    p.output(rank);
    assert_greedy_close(&p, "pagerank-2iter", 1.3);
}

/// One GNMF iteration from a Hash-placed `V`, over 3 placements × 3^10
/// strategy assignments. First touch lets `Wᵀ %*% V` (the first reader)
/// place `V` by column, which costs a CPMM for `V %*% Hᵀ` and a
/// column-to-row repartition of `W %*% (H Hᵀ)` later: 203 168 B. Placing
/// `V` by row first prices 172 448 B, the optimum, at the same certified
/// peak. (At sparsity 0.05 the row placement certifies a few hundred
/// bytes more for a single iteration, and the memory guard keeps first
/// touch.)
#[test]
fn gnmf_iteration_from_hash_matches_the_optimum() {
    let gnmf = dmac::apps::Gnmf {
        rows: 256,
        cols: 192,
        sparsity: 0.1,
        rank: 8,
        iterations: 1,
    };
    let mut p = Program::new();
    gnmf.build(&mut p).unwrap();
    let cfg = PlannerConfig {
        fusion_block: 16,
        ..PlannerConfig::default()
    };
    let planned = plan_program(&p, &cfg, 4, &schemes()).unwrap();
    let optimal = plan_exhaustive(&p, &cfg, 4, &schemes(), 200_000).unwrap();
    let first_touch =
        plan_with_forced_profiled(&p, &cfg, 4, &schemes(), &HashMap::new(), None).unwrap();
    assert_eq!(planned.estimated_comm, optimal.estimated_comm);
    assert!(
        first_touch.estimated_comm > optimal.estimated_comm,
        "first touch {} must be above the optimum {} at this shape",
        first_touch.estimated_comm,
        optimal.estimated_comm
    );
    assert!(planned.certificate.peak <= first_touch.certificate.peak);
}

#[test]
fn exhaustive_refuses_oversized_programs() {
    let mut p = Program::new();
    let a = p.load("A", 64, 64, 1.0);
    let mut x = a;
    for _ in 0..16 {
        x = p.matmul(x, a).unwrap(); // 3^16 combinations
    }
    p.output(x);
    assert!(plan_exhaustive(&p, &PlannerConfig::default(), 4, &schemes(), 10_000).is_err());
}
