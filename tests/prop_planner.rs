//! Property-based tests of the planner + engine: for *arbitrary*
//! well-formed programs, every system's staged distributed execution must
//! equal the straight-line local reference, the plan's stage schedule must
//! satisfy its invariant, and DMac's plan must never use more
//! communication steps than SystemML-S's.
//!
//! Randomness comes from the in-tree [`SplitMix64`] generator with fixed
//! seeds, so every case is reproducible: a failure message names the case
//! seed, which can be pinned as an explicit regression test (see
//! `regression_scale_then_square_single_worker` below).

mod common;

use std::collections::HashMap;

use common::{assert_matrix_eq, eval_reference};
use dmac::cluster::PartitionScheme;
use dmac::core::baselines::SystemKind;
use dmac::core::engine::random_cell;
use dmac::core::planner::{plan_program, plan_with_forced_profiled, PlannerConfig};
use dmac::core::{stage, Session};
use dmac::lang::{Expr, MatrixOrigin, Program};
use dmac::matrix::{BlockedMatrix, SplitMix64};

const BLOCK: usize = 4;
/// Base seed for the deterministic random search; per-test streams are
/// forked by xor so the suites draw independent cases.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
/// Shape vocabulary: all dims divide into 4-blocks unevenly on purpose.
const DIMS: [usize; 3] = [6, 10, 14];

/// One random instruction of a generated program.
#[derive(Debug, Clone)]
struct OpPick {
    kind: u8,
    a: usize,
    b: usize,
    t1: bool,
    t2: bool,
}

fn op_picks(rng: &mut SplitMix64, min: usize, max: usize) -> Vec<OpPick> {
    let count = rng.range_inclusive(min, max);
    (0..count)
        .map(|_| OpPick {
            kind: rng.below(7) as u8,
            a: rng.below(64),
            b: rng.below(64),
            t1: rng.chance(0.5),
            t2: rng.chance(0.5),
        })
        .collect()
}

/// Build a valid straight-line program from random picks: each pick is
/// applied if a shape-compatible interpretation exists, otherwise skipped.
/// Returns the program and the final expression (marked as output). With
/// `random`, `B` and `C` are `random` sources instead of bound ones.
fn build_program(picks: &[OpPick], random: bool) -> (Program, Expr) {
    let mut p = Program::new();
    let source = |p: &mut Program, name, rows, cols| {
        if random && name != "A" {
            p.random(name, rows, cols)
        } else {
            p.load(name, rows, cols, 0.6)
        }
    };
    let mut exprs: Vec<Expr> = vec![
        source(&mut p, "A", DIMS[0], DIMS[1]),
        source(&mut p, "B", DIMS[1], DIMS[2]),
        source(&mut p, "C", DIMS[0], DIMS[1]),
    ];
    for pick in picks {
        let a = exprs[pick.a % exprs.len()];
        let b = exprs[pick.b % exprs.len()];
        let ea = if pick.t1 { a.t() } else { a };
        let eb = if pick.t2 { b.t() } else { b };
        let sa = p.stats_of(ea).unwrap();
        let sb = p.stats_of(eb).unwrap();
        let out = match pick.kind {
            0 if sa.cols == sb.rows => p.matmul(ea, eb).ok(),
            1 if sa.shape() == sb.shape() => p.add(ea, eb).ok(),
            2 if sa.shape() == sb.shape() => p.sub(ea, eb).ok(),
            3 if sa.shape() == sb.shape() => p.cell_mul(ea, eb).ok(),
            4 if sa.shape() == sb.shape() => p.cell_div(ea, eb).ok(),
            5 => p.scale_const(ea, 0.5).ok(),
            6 => {
                let s = p.sum(ea).unwrap();
                p.scale(eb, s.clone() / (s + dmac::lang::ScalarExpr::c(1.0)))
                    .ok()
            }
            _ => None,
        };
        if let Some(e) = out {
            exprs.push(e);
        }
    }
    let last = *exprs.last().unwrap();
    p.output(last);
    (p, last)
}

fn bindings() -> HashMap<String, BlockedMatrix> {
    let mut m = HashMap::new();
    m.insert(
        "A".to_string(),
        dmac::data::uniform_sparse(DIMS[0], DIMS[1], 0.6, BLOCK, 101),
    );
    m.insert(
        "B".to_string(),
        dmac::data::dense_random(DIMS[1], DIMS[2], BLOCK, 102),
    );
    m.insert(
        "C".to_string(),
        dmac::data::uniform_sparse(DIMS[0], DIMS[1], 0.6, BLOCK, 103),
    );
    m
}

/// Run one generated program on one system/worker-count and compare with
/// the local reference interpreter (which reads each `random` source as
/// the session's seed generates it).
fn check_execution(
    picks: &[OpPick],
    random: bool,
    workers: usize,
    system: SystemKind,
    label: &str,
) {
    const RUN_SEED: u64 = 29;
    let (program, out) = build_program(picks, random);
    let mut binds = bindings();
    let mut randoms = HashMap::new();
    for d in program.matrices() {
        if matches!(d.origin, MatrixOrigin::Random) {
            binds.remove(&d.name);
            let cell = |i, j| random_cell(RUN_SEED, d.id, i, j);
            let m = BlockedMatrix::from_fn(d.stats.rows, d.stats.cols, BLOCK, cell).unwrap();
            randoms.insert(d.id, m);
        }
    }
    let expect = eval_reference(&program, &binds, &randoms);
    let mut s = Session::builder()
        .system(system)
        .workers(workers)
        .local_threads(2)
        .block_size(BLOCK)
        .seed(RUN_SEED)
        .build();
    for (name, m) in &binds {
        s.bind(name, m.clone()).unwrap();
    }
    s.run(&program).unwrap();
    let got = s.value(out).unwrap();
    let reference = if out.transposed {
        expect[&out.id].transpose()
    } else {
        expect[&out.id].clone()
    };
    assert_matrix_eq(&got, &reference, 1e-7, label);
}

/// Distributed execution of a random program equals the local reference
/// interpreter under every system and worker count.
#[test]
fn random_programs_execute_correctly() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..48 {
        let picks = op_picks(&mut rng, 1, 11);
        let workers = rng.range_inclusive(1, 4);
        let system = [SystemKind::Dmac, SystemKind::SystemMlS, SystemKind::RLocal][rng.below(3)];
        check_execution(
            &picks,
            false,
            workers,
            system,
            &format!("random program case {case} ({system:?}, {workers}w)"),
        );
    }
}

/// The same with `random` sources, which the DMac planner may have
/// generated Row, Column or Broadcast: still the reference's values.
#[test]
fn random_sources_execute_correctly() {
    let mut rng = SplitMix64::new(SEED ^ 4);
    for case in 0..32 {
        let picks = op_picks(&mut rng, 1, 11);
        let workers = rng.range_inclusive(1, 4);
        let system = [SystemKind::Dmac, SystemKind::SystemMlS][rng.below(2)];
        check_execution(
            &picks,
            true,
            workers,
            system,
            &format!("random-source case {case} ({system:?}, {workers}w)"),
        );
    }
}

/// Recorded regression (found by the random search above): a scale
/// feeding a self-multiply, re-scaled transposed, on a single worker.
#[test]
fn regression_scale_then_square_single_worker() {
    let picks = [
        OpPick {
            kind: 5,
            a: 0,
            b: 0,
            t1: false,
            t2: false,
        },
        OpPick {
            kind: 0,
            a: 0,
            b: 0,
            t1: false,
            t2: false,
        },
        OpPick {
            kind: 0,
            a: 0,
            b: 0,
            t1: false,
            t2: false,
        },
        OpPick {
            kind: 5,
            a: 0,
            b: 0,
            t1: true,
            t2: false,
        },
    ];
    check_execution(
        &picks,
        false,
        1,
        SystemKind::Dmac,
        "regression: scale/square",
    );
}

/// Every generated plan's stage schedule satisfies the §5.2 invariant:
/// communication only at stage boundaries.
#[test]
fn random_plans_stage_cleanly() {
    let mut rng = SplitMix64::new(SEED ^ 1);
    for case in 0..64 {
        let picks = op_picks(&mut rng, 1, 15);
        let (program, _) = build_program(&picks, case % 2 == 1);
        for cfg in [PlannerConfig::default(), PlannerConfig::systemml_s()] {
            let planned = plan_program(&program, &cfg, 4, &HashMap::new()).unwrap();
            let stages = stage::schedule(&planned.plan);
            assert!(
                stage::validate(&planned.plan, &stages).is_ok(),
                "case {case}: stage invariant violated"
            );
            assert!(
                planned.plan.nodes.iter().all(|n| !n.flexible),
                "case {case}: flexible node survived planning"
            );
        }
    }
}

/// Pricing each Hash-placed input's first placement against the whole
/// program never loses to first touch (the plain greedy, which places an
/// input by its first reader): no more estimated bytes, no more certified
/// memory, and on a tie first touch's plan step for step — first touch as
/// the finish's re-derivation pass leaves it, since both sides go through
/// that one finish. The corpus is drawn twice, once over bound inputs and
/// once with two of the three `random` (generated in their placement at
/// no cost). SystemML-S never
/// searches, so its plan is first touch's, the plan it always had.
#[test]
fn placement_search_never_loses_to_first_touch() {
    for random in [false, true] {
        let mut rng = SplitMix64::new(SEED ^ 3);
        let (mut placed, mut born) = (0, 0);
        for case in 0..64 {
            let picks = op_picks(&mut rng, 1, 15);
            let (program, _) = build_program(&picks, random);
            for cfg in [PlannerConfig::default(), PlannerConfig::systemml_s()] {
                let planned = plan_program(&program, &cfg, 4, &HashMap::new()).unwrap();
                let first = plan_with_forced_profiled(
                    &program,
                    &cfg,
                    4,
                    &HashMap::new(),
                    &HashMap::new(),
                    None,
                )
                .unwrap();
                let label = format!("case {case} (random sources: {random})");
                assert!(
                    planned.estimated_comm <= first.estimated_comm,
                    "{label}: {} > first touch {}",
                    planned.estimated_comm,
                    first.estimated_comm
                );
                assert!(
                    planned.certificate.peak <= first.certificate.peak,
                    "{label}: certified {} > first touch {}",
                    planned.certificate.peak,
                    first.certificate.peak
                );
                if planned.estimated_comm == first.estimated_comm || !cfg.exploit_dependencies {
                    // `first` is finished like every plan: rebuilt copies
                    // included, so the two agree step for step.
                    assert_eq!(planned.plan.steps, first.plan.steps, "{label}");
                    assert_eq!(planned.plan.nodes, first.plan.nodes, "{label}");
                } else {
                    placed += 1;
                }
                let plan = &planned.plan;
                born += plan.sources.iter().any(|&(n, m)| {
                    plan.nodes[n].scheme != PartitionScheme::Hash
                        && matches!(program.decl(m).unwrap().origin, MatrixOrigin::Random)
                }) as usize;
            }
        }
        assert!(
            placed > 0,
            "no case exercised a placement (random sources: {random})"
        );
        assert_eq!(born > 0, random, "a random source generated placed");
    }
}

/// The coordinate descent never loses to the placement product's winner
/// it starts from: over both corpora, bound and `random` sources, the
/// final plan predicts no more bytes than the seed, certifies no higher a
/// peak, saves exactly what its kept moves claim, and passes the
/// independent verifier (V01–V20).
#[test]
fn descent_never_loses_to_its_seed() {
    let cfg = PlannerConfig::default();
    let mut moved = 0;
    for random in [false, true] {
        let mut rng = SplitMix64::new(SEED ^ 7);
        for case in 0..64 {
            let picks = op_picks(&mut rng, 1, 15);
            let (program, _) = build_program(&picks, random);
            let planned = plan_program(&program, &cfg, 4, &HashMap::new()).unwrap();
            let (search, label) = (&planned.search, format!("case {case} ({random})"));
            assert!(planned.estimated_comm <= search.seed_comm, "{label}");
            assert!(planned.certificate.peak <= search.seed_peak, "{label}");
            let saved: u64 = search.moves.iter().map(|&(_, b)| b).sum();
            assert_eq!(planned.estimated_comm + saved, search.seed_comm, "{label}");
            assert!(search.moves.iter().all(|&(_, b)| b > 0), "{label}");
            dmac::analyze::verify_planned(&program, &planned, &cfg, 4)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            moved += !search.moves.is_empty() as usize;
        }
    }
    assert!(moved > 0, "no case kept a descent move");
}

/// The finish's re-derivation pass moves no byte and never raises
/// memory. Strip every rebuilt step from a finished plan, pointing its
/// readers and outputs back at the copy it replaced: the pass turns what
/// is left back into the same plan, the inserted steps are local
/// `extract` steps priced 0, every other step keeps its
/// predicted bytes, and (certified peak, steps at the peak) is no higher
/// than the stripped plan's. Over both corpora, bound and `random`
/// sources.
#[test]
fn rederivation_moves_no_byte_and_never_raises_memory() {
    use dmac::core::liveness;
    use dmac::core::plan::PlanStep;
    let score = |per: &[u64]| {
        let peak = per.iter().copied().max().unwrap_or(0);
        (peak, per.iter().filter(|&&b| b == peak).count())
    };
    let mut rebuilt = 0;
    for random in [false, true] {
        let mut rng = SplitMix64::new(SEED ^ 5);
        for case in 0..64 {
            let picks = op_picks(&mut rng, 1, 15);
            let (program, _) = build_program(&picks, random);
            let cfg = PlannerConfig::default();
            let planned = plan_program(&program, &cfg, 4, &HashMap::new()).unwrap();
            let (lean, label) = (
                &planned.plan,
                format!("case {case} (random sources: {random})"),
            );
            let mut plain = lean.clone();
            let (mut kept, mut twin_of) = (Vec::new(), HashMap::new());
            for (i, step) in lean.steps.iter().enumerate() {
                match (lean.rebuilds(i), step) {
                    (Some((twin, _)), PlanStep::Extract { out, .. }) => {
                        assert_eq!(lean.predicted_bytes(i), 0, "{label}");
                        twin_of.insert(*out, twin);
                    }
                    _ => kept.push(i),
                }
            }
            rebuilt += twin_of.len();
            let first_rebuilt = lean.nodes.len() - twin_of.len();
            assert!(twin_of.keys().all(|&n| n >= first_rebuilt), "{label}");
            let original = |mut n| {
                while let Some(&twin) = twin_of.get(&n) {
                    n = twin;
                }
                n
            };
            plain.steps = kept.iter().map(|&i| lean.steps[i].clone()).collect();
            for step in &mut plain.steps {
                for n in step.in_nodes() {
                    step.replace_input(n, original(n));
                }
            }
            plain.predicted = kept.iter().map(|&i| lean.predicted_bytes(i)).collect();
            plain.nodes.truncate(first_rebuilt);
            for output in &mut plain.outputs {
                output.0 = original(output.0);
            }
            (plain.releases, plain.predicted_nnz) = (Vec::new(), Vec::new());
            assert_eq!(plain.predicted_total(), planned.estimated_comm, "{label}");

            let block = cfg.fusion_block;
            let mut again = plain.clone();
            let cert = liveness::rederive(&program, &mut again, &planned.profiles, block);
            assert_eq!(again.steps, lean.steps, "{label}");
            assert_eq!(again.nodes, lean.nodes, "{label}");
            assert_eq!(again.outputs, lean.outputs, "{label}");
            assert_eq!(again.predicted, lean.predicted, "{label}");
            assert_eq!(cert, planned.certificate, "{label}");

            liveness::record_releases(&program, &mut plain);
            let before = liveness::certificate(&program, &plain, &planned.profiles, block);
            let after = &planned.certificate.per_step;
            assert!(score(after) <= score(&before.per_step), "{label}");
            assert!(after.iter().all(|&b| b <= before.peak), "{label}");
        }
    }
    assert!(rebuilt > 0, "no case rebuilt a copy");
}

/// Dependency exploitation never plans more communication steps than the
/// dependency-blind baseline on the same program.
#[test]
fn dmac_never_plans_more_comm_steps() {
    let mut rng = SplitMix64::new(SEED ^ 2);
    for case in 0..64 {
        let picks = op_picks(&mut rng, 1, 15);
        let (program, _) = build_program(&picks, false);
        let dmac = plan_program(&program, &PlannerConfig::default(), 4, &HashMap::new()).unwrap();
        let sysml =
            plan_program(&program, &PlannerConfig::systemml_s(), 4, &HashMap::new()).unwrap();
        assert!(
            dmac.plan.comm_step_count() <= sysml.plan.comm_step_count(),
            "case {case}: dmac {} > sysml {}",
            dmac.plan.comm_step_count(),
            sysml.plan.comm_step_count()
        );
    }
}
