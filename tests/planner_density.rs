//! Density-adaptive planning: the multiplication-strategy choice must
//! track the *measured* density of the inputs, not the declared
//! worst-case sparsity.
//!
//! The fixture is a single multiplication `C = A · B` with `A` 400×400 at
//! a swept density and `B` 400×200 dense, both *declared* dense (sparsity
//! 1.0 — the common case where the script author doesn't know the data).
//! Under the paper's §4.1 pricing with 4 workers and Hash-placed inputs:
//!
//! * RMM1 (broadcast A):  4·|A| + |B|
//! * RMM2 (broadcast B):  |A| + 4·|B|
//!
//! so RMM1 wins exactly when |A| < |B|, i.e. measured density of A below
//! 400·200 / (400·400) = 0.5. The sweep asserts the flip happens at that
//! crossover, that force-overriding the planner onto the rejected
//! strategy prices worse, and that on the sparsest input the chosen plan's
//! *metered* wire bytes undercut what the rejected strategy is priced at —
//! the choice is load-bearing, not incidental.

use std::collections::HashMap;

use dmac::core::plan::PlanStep;
use dmac::core::planner::{plan_program_profiled, plan_with_forced_profiled, PlannerConfig};
use dmac::core::{Session, SparsityProfile};
use dmac::lang::{MatrixId, Program};
use dmac::matrix::BlockedMatrix;

const WORKERS: usize = 4;
const BLOCK: usize = 64;

/// Deterministic matrix of exact density `d`: the linear cell index mod
/// 1000 gates each cell, so every block row/col carries ~`d` of its cells
/// (no RNG collisions shaving the density near the crossover).
fn patterned(rows: usize, cols: usize, d: f64) -> BlockedMatrix {
    let gate = (d * 1000.0).round() as usize;
    let trips = (0..rows).flat_map(|i| {
        (0..cols)
            .filter(move |j| (i * cols + j) % 1000 < gate)
            .map(move |j| (i, j, 1.0 + ((i * 7 + j * 3) % 10) as f64 / 10.0))
    });
    // from_triplets compacts per tile: dense tiles store (and ship) dense,
    // sparse tiles CSC — so wire bytes track the actual density.
    BlockedMatrix::from_triplets(rows, cols, BLOCK, trips).unwrap()
}

/// `C = A(400×400, declared dense) · B(400×200, dense)`.
fn fixture() -> (Program, dmac::lang::Expr) {
    let mut p = Program::new();
    let a = p.load("A", 400, 400, 1.0);
    let b = p.load("B", 400, 200, 1.0);
    let c = p.matmul(a, b).unwrap();
    p.output(c);
    (p, c)
}

fn matrix_id(p: &Program, name: &str) -> MatrixId {
    p.matrices().iter().find(|d| d.name == name).unwrap().id
}

fn cfg() -> PlannerConfig {
    PlannerConfig {
        fusion_block: BLOCK,
        ..PlannerConfig::default()
    }
}

fn measured_sources(p: &Program, density_a: f64) -> HashMap<MatrixId, SparsityProfile> {
    let a = patterned(400, 400, density_a);
    let b = patterned(400, 200, 1.0);
    HashMap::from([
        (matrix_id(p, "A"), SparsityProfile::measure(&a)),
        (matrix_id(p, "B"), SparsityProfile::measure(&b)),
    ])
}

/// The strategy name of the single matmul step in a plan.
fn matmul_strategy(plan: &dmac::core::plan::Plan) -> String {
    plan.steps
        .iter()
        .find_map(|s| match s {
            PlanStep::Compute { strategy, .. } => {
                let n = strategy.name();
                (n == "RMM1" || n == "RMM2" || n == "CPMM").then_some(n)
            }
            _ => None,
        })
        .expect("plan must contain a multiplication step")
}

/// Sweeping A's measured density flips the plan from RMM2 (dense side of
/// the |A| = |B| crossover) to RMM1 (sparse side) even though the program
/// text never changes.
#[test]
fn strategy_flips_at_the_predicted_crossover() {
    let (p, _c) = fixture();
    let schemes = HashMap::new();
    for (d, want) in [
        (1.0, "RMM2"),
        (0.9, "RMM2"),
        (0.75, "RMM2"),
        (0.4, "RMM1"),
        (0.25, "RMM1"),
        (0.1, "RMM1"),
        (0.01, "RMM1"),
    ] {
        let sources = measured_sources(&p, d);
        let planned = plan_program_profiled(&p, &cfg(), WORKERS, &schemes, &sources).unwrap();
        assert_eq!(
            matmul_strategy(&planned.plan),
            want,
            "density {d}: wrong multiplication strategy"
        );
    }
}

/// Forcing the planner onto the strategy it rejected must cost more under
/// the same profiled pricing (candidate order: 0 = RMM1, 1 = RMM2).
#[test]
fn rejected_strategy_prices_strictly_worse() {
    let (p, _c) = fixture();
    let schemes = HashMap::new();
    for (d, rejected) in [(0.01, 1usize), (1.0, 0usize)] {
        let sources = measured_sources(&p, d);
        let chosen = plan_program_profiled(&p, &cfg(), WORKERS, &schemes, &sources).unwrap();
        let forced = HashMap::from([(0usize, rejected)]);
        let alt = plan_with_forced_profiled(&p, &cfg(), WORKERS, &schemes, &sources, Some(&forced))
            .unwrap();
        assert!(
            chosen.estimated_comm < alt.estimated_comm,
            "density {d}: chosen {} must undercut forced alternative {}",
            chosen.estimated_comm,
            alt.estimated_comm
        );
    }
}

/// On the sparsest input the plan the session runs (RMM1, broadcasting the
/// 1 %-dense `A`) puts strictly fewer bytes on the wire than the rejected
/// RMM2 is priced at — the predicted saving is real, not a pricing
/// artefact — and the product is the right one.
#[test]
fn chosen_plan_meters_less_wire_than_the_rejected_strategy_prices() {
    let a = patterned(400, 400, 0.01);
    let b = patterned(400, 200, 1.0);
    let (p, c) = fixture();
    let mut s = Session::builder()
        .workers(WORKERS)
        .local_threads(2)
        .block_size(BLOCK)
        .build();
    s.bind("A", a.clone()).unwrap();
    s.bind("B", b.clone()).unwrap();
    let report = s.run(&p).unwrap();
    assert!(report.trace.steps.iter().any(|st| st.kind == "RMM1"));
    let wire = report.trace.wire_total();

    let sources = measured_sources(&p, 0.01);
    let rmm2 = HashMap::from([(0usize, 1usize)]);
    let alt =
        plan_with_forced_profiled(&p, &cfg(), WORKERS, &HashMap::new(), &sources, Some(&rmm2))
            .unwrap();
    assert!(
        wire < alt.estimated_comm,
        "metered wire {wire} must undercut the forced RMM2's priced {}",
        alt.estimated_comm
    );

    let got = s.value(c).unwrap().to_dense();
    let want = a.matmul_reference(&b).unwrap().to_dense();
    assert_eq!(
        dmac::matrix::approx_eq_slice(got.data(), want.data(), 1e-9),
        None
    );
}
