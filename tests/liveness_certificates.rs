//! Plan-level liveness end-to-end: every application's plan carries a
//! memory certificate that (a) the independent analyzer re-derivation
//! accepts (V18–V20), (b) the engine's measured per-step residency
//! never exceeds (V21), and (c) releasing values early — consumed by the
//! tile-wise step that last reads them, or freed right after their last
//! reader — does not change a single output bit, across {dense, sparse}
//! inputs and both transports (in-process simulator and real
//! `dmac-workerd` processes over sockets).
//!
//! The retain-to-end reference is the production planner's plan for the
//! same program with every intermediate pinned as an output
//! ([`common::pin_all_intermediates`]): outputs are never released before
//! the run ends. Against it the early releases must also pay off — a
//! lower certified peak, and strictly less spill under a halved RAM
//! budget.
//!
//! The benchmark-shape plans pin what the release record must not move:
//! the certified peak, and one release per dead value, at its last reader.
//!
//! The tamper tests at the bottom forge each violation class and assert
//! the verifier names it: a read after a free, after a forged consumer or
//! of a rebuild's released sibling (V18), a dropped or doubled free, a
//! consumed value freed again and an output bound to a node no step
//! defines (V19), an understated certificate (V20), and inflated
//! resident metering (V21).

mod common;

use std::collections::HashMap;

use common::{pin_all_intermediates, TempDir};
use dmac::analyze;
use dmac::apps::{
    CollaborativeFiltering, Gnmf, LinearRegression, PageRank, SvdLanczos, TriangleCount,
};
use dmac::cluster::SocketOptions;
use dmac::core::liveness;
use dmac::core::planner::{plan_program_profiled, PlannerConfig};
use dmac::core::{Session, SharedStore};
use dmac::lang::{Expr, MatrixOrigin, Program};
use dmac::matrix::BlockedMatrix;

const BLOCK: usize = 8;
const WORKERS: usize = 2;
const SEED: u64 = 13;

/// One application instance: its program and the load bindings it needs.
struct Case {
    name: &'static str,
    program: Program,
    bindings: Vec<(String, BlockedMatrix)>,
}

/// The six applications at test scale. `sparsity < 1.0` builds the
/// sparse variant (sparse-class load inputs, CSC-bounded certificate
/// prices); `1.0` the dense one.
fn cases(sparsity: f64) -> Vec<Case> {
    let mut out = Vec::new();

    let gnmf = Gnmf {
        rows: 24,
        cols: 20,
        sparsity,
        rank: 6,
        iterations: 2,
    };
    let mut p = Program::new();
    gnmf.build(&mut p).unwrap();
    out.push(Case {
        name: "gnmf",
        program: p,
        bindings: vec![(
            "V".into(),
            dmac::data::uniform_sparse(24, 20, sparsity, BLOCK, 31),
        )],
    });

    let nodes = 24;
    let pr = PageRank {
        nodes,
        link_sparsity: sparsity,
        damping: 0.85,
        iterations: 3,
    };
    let mut p = Program::new();
    pr.build(&mut p).unwrap();
    let adj = dmac::data::uniform_sparse(nodes, nodes, sparsity, BLOCK, 32);
    let link = dmac::data::row_normalize(&adj).unwrap();
    let d = BlockedMatrix::from_fn(1, nodes, BLOCK, |_, _| 1.0 / nodes as f64).unwrap();
    out.push(Case {
        name: "pagerank",
        program: p,
        bindings: vec![("link".into(), link), ("D".into(), d)],
    });

    let cf = CollaborativeFiltering {
        items: 20,
        users: 24,
        sparsity,
    };
    let mut p = Program::new();
    cf.build(&mut p).unwrap();
    out.push(Case {
        name: "cf",
        program: p,
        bindings: vec![(
            "R".into(),
            dmac::data::uniform_sparse(20, 24, sparsity, BLOCK, 33),
        )],
    });

    let lr = LinearRegression {
        rows: 24,
        features: 12,
        sparsity,
        lambda: 1e-6,
        iterations: 2,
    };
    let mut p = Program::new();
    lr.build(&mut p).unwrap();
    out.push(Case {
        name: "linreg",
        program: p,
        bindings: vec![
            (
                "V".into(),
                dmac::data::uniform_sparse(24, 12, sparsity, BLOCK, 34),
            ),
            ("y".into(), dmac::data::dense_random(24, 1, BLOCK, 35)),
        ],
    });

    let svd = SvdLanczos {
        rows: 16,
        cols: 10,
        sparsity,
        rank: 3,
    };
    let mut p = Program::new();
    svd.build(&mut p).unwrap();
    out.push(Case {
        name: "svd",
        program: p,
        bindings: vec![(
            "V".into(),
            dmac::data::uniform_sparse(16, 10, sparsity, BLOCK, 36),
        )],
    });

    let tri = TriangleCount {
        nodes: 20,
        sparsity,
    };
    let mut p = Program::new();
    tri.build(&mut p).unwrap();
    let adj = dmac::data::uniform_sparse(20, 20, sparsity, BLOCK, 37);
    out.push(Case {
        name: "triangles",
        program: p,
        bindings: vec![("A".into(), TriangleCount::symmetrise(&adj).unwrap())],
    });

    out
}

/// Count of early releases in a plan: the values its steps consume or
/// free.
fn releases(plan: &dmac::core::plan::Plan) -> usize {
    plan.releases.iter().map(|r| r.all().count()).sum()
}

/// Run `program` (the case's own, or its all-pinned reference) on one
/// transport; returns the exact bit pattern of every output of the
/// *case's* program, keyed by output position, and the plan's release
/// count.
fn run_case(case: &Case, program: &Program, socket: bool) -> (Vec<Vec<u64>>, usize) {
    let mut b = Session::builder()
        .workers(WORKERS)
        .local_threads(2)
        .block_size(BLOCK)
        .seed(SEED);
    if socket {
        b = b.socket_transport(SocketOptions::default());
    }
    let mut sess = b
        .try_build()
        .unwrap_or_else(|e| panic!("{}: launch: {e}", case.name));
    for (name, m) in &case.bindings {
        sess.bind(name, m.clone()).unwrap();
    }
    // One warm-up run of the case's own program caches its inputs'
    // placement, so the freed plan and its all-pinned twin below are
    // planned from the same placement. Planned from Hash, each would get
    // its own: the planner keeps a first placement only if it certifies
    // no more memory than first touch, and the twin, which retains every
    // intermediate, certifies differently (it decides otherwise for
    // linreg). The comparison would then be between two placements, not
    // between freeing and retaining.
    sess.run(&case.program)
        .unwrap_or_else(|e| panic!("{}: warm-up: {e}", case.name));

    // prepare() runs the installed plan verifier (V01–V20) in debug
    // builds; run_prepared() additionally re-checks the trace (V21).
    let prep = sess
        .prepare(program)
        .unwrap_or_else(|e| panic!("{}: prepare: {e}", case.name));
    let report = sess
        .run_prepared(&prep)
        .unwrap_or_else(|e| panic!("{}: run: {e}", case.name));

    // Explicit V21 on top of the hook, plus the peak inequality the
    // certificate exists to guarantee.
    analyze::check_observed(prep.certificate(), &report.trace)
        .unwrap_or_else(|e| panic!("{}: {e}", case.name));
    let observed = report.trace.peak_resident();
    let certified = prep.certificate().peak;
    assert!(
        observed <= certified,
        "{}: observed peak {observed} exceeds certified {certified}",
        case.name
    );
    assert!(certified > 0, "{}: empty certificate", case.name);

    let outs = case
        .program
        .outputs()
        .iter()
        .map(|(mr, _)| {
            let e = Expr {
                id: mr.id,
                transposed: mr.transposed,
            };
            sess.value(e)
                .unwrap()
                .to_dense()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    if socket {
        sess.shutdown_transport().unwrap();
    }
    (outs, releases(prep.plan()))
}

/// One half of the matrix: every app on `socket` (or the simulator),
/// values released early, must verify V18–V21 and stay bit-identical to
/// the all-pinned simulator run — which, for the socket half,
/// transitively proves early release is inert across transports too.
fn matrix(sparsity: f64, socket: bool) {
    analyze::install_session_verifier();
    for case in &cases(sparsity) {
        let (freed, n_freed) = run_case(case, &case.program, socket);
        let (pinned, n_pinned) = run_case(case, &pin_all_intermediates(&case.program), false);
        assert!(
            n_freed > n_pinned,
            "{}: no intermediate is released early ({n_freed} releases vs {n_pinned} pinned)",
            case.name
        );
        assert_eq!(
            freed, pinned,
            "{} (socket={socket}): early releases changed an output bit",
            case.name
        );
    }
}

#[test]
fn certificates_hold_for_all_apps_dense_sim() {
    matrix(1.0, false);
}

#[test]
fn certificates_hold_for_all_apps_sparse_sim() {
    matrix(0.25, false);
}

#[test]
fn certificates_hold_for_all_apps_dense_socket() {
    matrix(1.0, true);
}

#[test]
fn certificates_hold_for_all_apps_sparse_socket() {
    matrix(0.25, true);
}

/// A plan's choice of strategy for every multiplication of `program`,
/// as `Session::prepare_forced` takes it: op index → candidate index.
fn choices(program: &Program, plan: &dmac::core::plan::Plan) -> HashMap<usize, usize> {
    use dmac::core::strategy::candidates;
    let ops = program.ops().iter().filter(|op| op.kind.is_matmul());
    ops.map(|op| {
        let chosen = plan.strategy_of(op.index).unwrap();
        let cands = candidates(&op.kind);
        (
            op.index,
            cands.iter().position(|c| c.strategy == chosen).unwrap(),
        )
    })
    .collect()
}

/// Prepare and run `program` over `store` at the memory experiment's
/// scale — searched, or with `forced` strategies and no search; returns
/// `(certified peak, observed peak, named result bits, strategies)`.
fn run_over(
    program: &Program,
    bindings: &[(&str, BlockedMatrix)],
    results: &[&str],
    store: SharedStore,
    forced: Option<&HashMap<usize, usize>>,
) -> (u64, u64, Vec<Vec<u64>>, HashMap<usize, usize>) {
    let mut s = Session::builder()
        .workers(4)
        .local_threads(2)
        .block_size(BLOCK)
        .seed(42)
        .store(store)
        .build();
    for (name, m) in bindings {
        s.bind(name, m.clone()).unwrap();
    }
    let prep = match forced {
        Some(forced) => s.prepare_forced(program, forced),
        None => s.prepare(program),
    }
    .unwrap();
    let report = s.run_prepared(&prep).unwrap();
    let bits = results
        .iter()
        .map(|n| {
            let m = s.env_value(n).unwrap().to_dense();
            m.data().iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    let strategies = choices(program, prep.plan());
    (
        prep.certificate().peak,
        report.trace.peak_resident(),
        bits,
        strategies,
    )
}

/// What the early frees buy, against the all-pinned plan of the same
/// program — the twin computes every multiplication by the strategy the
/// early-free plan chose, so the two differ in their frees alone (a
/// searched twin, whose peak differs, may keep other strategies and round
/// differently): a certified peak at most three quarters of the reference's,
/// and — under a disk-backed store budgeted at half the reference's
/// observed peak, where the engine's residency displaces the bound inputs
/// — a peak footprint at least a quarter lower, no more spilled bytes
/// (strictly fewer when `fits`: the early-free plan fits the budget
/// outright), nothing dropped, the same bits.
fn assert_frees_pay_off(
    name: &str,
    program: &Program,
    bindings: &[(&str, BlockedMatrix)],
    results: &[&str],
    fits: bool,
) {
    let pinned = pin_all_intermediates(program);
    let (cert, obs, bits, strategies) =
        run_over(program, bindings, results, SharedStore::new(), None);
    let twin = Some(&strategies);
    let (cert_pinned, obs_pinned, bits_pinned, _) =
        run_over(&pinned, bindings, results, SharedStore::new(), twin);
    assert!(obs <= cert, "{name}: observed {obs} > certified {cert}");
    assert!(
        4 * cert <= 3 * cert_pinned,
        "{name}: certified peak {cert} is over 75% of the all-pinned {cert_pinned}"
    );
    assert_eq!(
        bits, bits_pinned,
        "{name}: early frees changed a result bit"
    );

    let (dir, dir_pinned) = (
        TempDir::new(&format!("liveness-{name}-frees")),
        TempDir::new(&format!("liveness-{name}-pinned")),
    );
    let capped = |dir: &TempDir| SharedStore::with_capacity_and_disk(obs_pinned / 2, dir).unwrap();
    let (store, store_pinned) = (capped(&dir), capped(&dir_pinned));
    let (_, _, capped_bits, _) = run_over(program, bindings, results, store.clone(), None);
    let (_, _, capped_pinned, _) = run_over(&pinned, bindings, results, store_pinned.clone(), twin);
    let (on, off) = (store.stats(), store_pinned.stats());
    assert!(
        4 * on.peak_footprint <= 3 * off.peak_footprint,
        "{name}: peak footprint {} is over 75% of the all-pinned {}",
        on.peak_footprint,
        off.peak_footprint
    );
    assert!(
        on.spill_bytes <= off.spill_bytes && (!fits || on.spill_bytes < off.spill_bytes),
        "{name}: spill bytes not reduced ({} vs {})",
        on.spill_bytes,
        off.spill_bytes
    );
    assert_eq!(
        (on.dropped, off.dropped),
        (0, 0),
        "{name}: store dropped entries"
    );
    assert_eq!(capped_bits, bits, "{name}: halved-RAM run diverged");
    assert_eq!(
        capped_pinned, bits,
        "{name}: halved-RAM pinned run diverged"
    );
}

/// GNMF's intermediates dwarf its input, so the early-free plan fits half
/// the all-pinned peak outright and must spill strictly less.
#[test]
fn early_frees_pay_off_for_gnmf_under_halved_ram() {
    let gnmf = Gnmf {
        rows: 96,
        cols: 64,
        sparsity: 0.3,
        rank: 8,
        iterations: 6,
    };
    let mut p = Program::new();
    gnmf.build(&mut p).unwrap();
    let v = dmac::data::uniform_sparse(gnmf.rows, gnmf.cols, gnmf.sparsity, BLOCK, 5);
    assert_frees_pay_off("gnmf", &p, &[("V", v)], &["W", "H"], true);
}

/// PageRank's `link` outweighs its rank vectors and is displaced at half
/// the all-pinned peak either way: no more spill, not strictly less.
///
/// Eighteen iterations, re-recorded once from twelve when the teleport
/// became a pre-loop value of `PageRank::build`: an iteration makes three
/// rank-sized vectors for the reference to pin. Through `run_over`'s
/// `Session::prepare` / `prepare_forced`, the early-free plan certifies
/// 39 616 B at step 1, while `link` is held twice (hash-placed and
/// broadcast) before any intermediate exists, so no free can lower it.
/// The all-pinned twin certifies 60 512 B, at its end. At twelve
/// iterations the twin ends at 46 688 B and that shared moment is over
/// three quarters of it; at eighteen the bounds below hold.
#[test]
fn early_frees_pay_off_for_pagerank_under_halved_ram() {
    let pr = PageRank {
        nodes: 96,
        link_sparsity: 0.1,
        damping: 0.85,
        iterations: 18,
    };
    let mut p = Program::new();
    pr.build(&mut p).unwrap();
    let adj = dmac::data::uniform_sparse(pr.nodes, pr.nodes, pr.link_sparsity, BLOCK, 6);
    let link = dmac::data::row_normalize(&adj).unwrap();
    let d = BlockedMatrix::from_fn(1, pr.nodes, BLOCK, |_, _| 1.0 / pr.nodes as f64).unwrap();
    assert_frees_pay_off(
        "pagerank",
        &p,
        &[("link", link), ("D", d)],
        &["rank"],
        false,
    );
}

/// Every dead node of `plan` is released exactly once: at its last
/// reader, or at the step that made it if nothing reads it.
fn assert_released_once(name: &str, program: &Program, plan: &dmac::core::plan::Plan) {
    let keep = liveness::keep_set(program, plan);
    let (mut last_read, mut made) = (vec![None; plan.nodes.len()], vec![None; plan.nodes.len()]);
    for (i, step) in plan.steps.iter().enumerate() {
        for n in step.in_nodes() {
            last_read[n] = Some(i);
        }
        if let Some(out) = step.out_node() {
            made[out] = Some(i);
        }
    }
    let mut released = vec![Vec::new(); plan.nodes.len()];
    for (i, releases) in plan.releases.iter().enumerate() {
        for n in releases.all() {
            released[n].push(i);
        }
    }
    for n in 0..plan.nodes.len() {
        let want = match last_read[n].or(made[n]) {
            Some(at) if !keep[n] => vec![at],
            _ => Vec::new(),
        };
        assert_eq!(
            released[n],
            want,
            "{name}: node {n} ({})\n{}",
            plan.node_label(program, n),
            plan.explain(program)
        );
    }
}

/// The plans of the benchmark's GNMF (`gnmf_sim`: 4 096 × 3 072 at 5 %,
/// rank 128, block 128) and PageRank (`pagerank_socket`: 16 384 nodes,
/// 262 144 links, block 128), both on 4 workers, cold (every input
/// hash-placed) and warm (each bound input where the cold plan caches
/// it), certify the peaks pinned below and release each dead node once.
#[test]
fn benchmark_plans_keep_their_certified_peaks() {
    let gnmf = Gnmf {
        rows: 4096,
        cols: 3072,
        sparsity: 0.05,
        rank: 128,
        iterations: 4,
    };
    let nodes = 16_384;
    let pagerank = PageRank {
        nodes,
        link_sparsity: 262_144.0 / (nodes as f64 * nodes as f64),
        damping: 0.85,
        iterations: 10,
    };
    let (mut g, mut pr) = (Program::new(), Program::new());
    gnmf.build(&mut g).unwrap();
    pagerank.build(&mut pr).unwrap();
    let cfg = PlannerConfig {
        fusion_block: 128,
        ..Default::default()
    };
    // Read when each release was a `free` step: GNMF then planned 79
    // steps cold and 77 warm, PageRank 44 and 42. GNMF's were re-read
    // (29 468 064 both) when the planner began rebuilding what a free
    // dependency gives back: each H-update's `H(r)` is extracted from
    // `H(b)` instead of held across the W-update, and the output `H(r)` is
    // transposed back from `Hᵀ(c)`. Cold, the peak moves to step 0's
    // partition of `V`; warm, `V` is already by row and the peak falls by
    // |H| (3 145 728 B). PageRank has no sibling that lowers its peak.
    // GNMF's warm peak was re-read (26 322 336) when fused steps began
    // folding their RMM products: the W-update's `V Hᵀ` and `W·HHᵀ` no
    // longer exist, the step that made `W·HHᵀ` held the peak, and it
    // moves to the H-update's `Wᵀ W`, 1 048 576 B lower. The cold peak
    // (the partition of `V`) and PageRank's do not move. GNMF's warm peak
    // was re-read (24 225 184) when a transpose became a view, not a step:
    // no copy of `Wᵀ` or `Hᵀ` is held beside its source, and the peak
    // falls by 1 048 576 B; the cold peak is the partition of `V` still.
    for (name, program, peaks) in [
        ("gnmf_sim", g, [28_265_280, 24_225_184]),
        ("pagerank_socket", pr, [25_559_040, 13_041_664]),
    ] {
        let mut initial: HashMap<_, _> = program
            .matrices()
            .iter()
            .filter(|d| matches!(d.origin, MatrixOrigin::Load | MatrixOrigin::Random))
            .map(|d| (d.id, dmac::cluster::PartitionScheme::Hash))
            .collect();
        let cold = plan_program_profiled(&program, &cfg, 4, &initial, &HashMap::new()).unwrap();
        for (mid, n) in liveness::cached_inputs(&program, &cold.plan) {
            initial.insert(mid, cold.plan.nodes[n].scheme);
        }
        let warm = plan_program_profiled(&program, &cfg, 4, &initial, &HashMap::new()).unwrap();
        for (planned, peak) in [(&cold, peaks[0]), (&warm, peaks[1])] {
            assert_eq!(planned.certificate.peak, peak, "{name}");
            analyze::check_liveness(&program, planned, &cfg).unwrap();
            assert_released_once(name, &program, &planned.plan);
        }
    }
}

// ---------------------------------------------------------------------
// Tamper tests: forge each violation and assert the verifier names it.
// ---------------------------------------------------------------------

/// A small random-input program with several dead intermediates, planned
/// directly (no session) so the `Planned` can be mutated.
fn tamper_subject() -> (Program, dmac::core::planner::Planned, PlannerConfig) {
    let mut p = Program::new();
    let a = p.random("A", 16, 16);
    let b = p.matmul(a, a).unwrap();
    let c = p.add(b, a).unwrap();
    let d = p.cell_mul(c, c).unwrap();
    p.store(d, "D");

    let cfg = PlannerConfig::default();
    let mut initial = HashMap::new();
    for decl in p.matrices() {
        if matches!(decl.origin, MatrixOrigin::Load | MatrixOrigin::Random) {
            initial.insert(decl.id, dmac::cluster::PartitionScheme::Hash);
        }
    }
    let planned = plan_program_profiled(&p, &cfg, WORKERS, &initial, &HashMap::new()).unwrap();
    analyze::check_liveness(&p, &planned, &cfg).expect("untampered plan must verify");
    (p, planned, cfg)
}

/// The first `(step, node)` the plan frees after a step that reads it.
fn first_read_free(plan: &dmac::core::plan::Plan) -> (usize, usize) {
    (0..plan.steps.len())
        .find_map(|i| {
            let reads = plan.steps[i].in_nodes();
            let frees = &plan.releases_at(i).frees;
            frees.iter().find(|n| reads.contains(n)).map(|&n| (i, n))
        })
        .expect("some step frees a value it reads")
}

#[test]
fn forged_read_after_free_is_caught_as_v18() {
    let (p, mut planned, cfg) = tamper_subject();
    // Move a free from the value's last reader to the step before it:
    // the read now happens after the release.
    let plan = &mut planned.plan;
    let (idx, node) = first_read_free(plan);
    assert!(idx > 0, "{}", plan.explain(&p));
    plan.releases[idx].frees.retain(|&n| n != node);
    plan.releases[idx - 1].frees.push(node);
    let err = analyze::check_liveness(&p, &planned, &cfg).unwrap_err();
    assert!(err.contains("V18"), "{err}");
}

#[test]
fn dropped_free_is_caught_as_v19() {
    let (p, mut planned, cfg) = tamper_subject();
    let (idx, node) = first_read_free(&planned.plan);
    planned.plan.releases[idx].frees.retain(|&n| n != node);
    let err = analyze::check_liveness(&p, &planned, &cfg).unwrap_err();
    assert!(err.contains("V19"), "{err}");
}

#[test]
fn doubled_free_is_caught_as_v19() {
    let (p, mut planned, cfg) = tamper_subject();
    let (idx, node) = first_read_free(&planned.plan);
    planned.plan.releases[idx].frees.push(node);
    let err = analyze::check_liveness(&p, &planned, &cfg).unwrap_err();
    assert!(err.contains("V19"), "{err}");
}

#[test]
fn forged_consumer_read_later_is_caught_as_v18() {
    let (p, mut planned, cfg) = tamper_subject();
    // A tile-wise step reading a node some later step reads too: record
    // it as that node's consumer.
    let plan = &planned.plan;
    let read_after = |i: usize, n: usize| {
        plan.steps[i + 1..]
            .iter()
            .any(|s| s.in_nodes().contains(&n))
    };
    let (idx, node) = (0..plan.steps.len())
        .find_map(|i| {
            let ins = liveness::tile_wise_inputs(&plan.steps[i]);
            ins.into_iter().find(|&n| read_after(i, n)).map(|n| (i, n))
        })
        .expect("some tile-wise step reads a node read again later");
    planned.plan.releases[idx].consumes.push(node);
    let err = analyze::check_liveness(&p, &planned, &cfg).unwrap_err();
    assert!(err.contains("V18"), "{err}");
}

#[test]
fn consumed_value_freed_again_is_caught_as_v19() {
    let (p, mut planned, cfg) = tamper_subject();
    let plan = &mut planned.plan;
    let (idx, node) = (0..plan.steps.len())
        .find_map(|i| plan.releases_at(i).consumes.first().map(|&n| (i, n)))
        .expect("some step consumes its input");
    plan.releases[idx].frees.push(node);
    let err = analyze::check_liveness(&p, &planned, &cfg).unwrap_err();
    assert!(err.contains("V19"), "{err}");
}

/// GNMF at a small shape, planned directly with `V` already by row: the
/// planner rebuilds, rather than holds, each H-update's `H(r)`.
fn rebuilt_subject() -> (Program, dmac::core::planner::Planned, PlannerConfig) {
    let gnmf = Gnmf {
        rows: 48,
        cols: 32,
        sparsity: 0.3,
        rank: 8,
        iterations: 2,
    };
    let mut p = Program::new();
    gnmf.build(&mut p).unwrap();
    let cfg = PlannerConfig {
        fusion_block: BLOCK,
        ..Default::default()
    };
    let initial = p
        .matrices()
        .iter()
        .filter(|d| matches!(d.origin, MatrixOrigin::Load))
        .map(|d| (d.id, dmac::cluster::PartitionScheme::Row))
        .collect();
    let planned = plan_program_profiled(&p, &cfg, 4, &initial, &HashMap::new()).unwrap();
    analyze::check_liveness(&p, &planned, &cfg).expect("untampered plan must verify");
    (p, planned, cfg)
}

#[test]
fn forged_rebuild_reading_a_released_sibling_is_caught_as_v18() {
    let (p, mut planned, cfg) = rebuilt_subject();
    let plan = &mut planned.plan;
    let at = (0..plan.steps.len())
        .find(|&i| plan.rebuilds(i).is_some())
        .unwrap_or_else(|| panic!("no rebuilt step\n{}", plan.explain(&p)));
    // Release the copy the rebuild reads one step before the rebuild.
    let sibling = plan.steps[at].in_nodes()[0];
    for releases in &mut plan.releases {
        releases.consumes.retain(|&n| n != sibling);
        releases.frees.retain(|&n| n != sibling);
    }
    plan.releases[at - 1].frees.push(sibling);
    let err = analyze::check_liveness(&p, &planned, &cfg).unwrap_err();
    assert!(err.contains("V18"), "{err}");
}

#[test]
fn an_output_bound_to_an_undefined_node_is_an_error_not_a_panic() {
    let (p, planned, cfg) = rebuilt_subject();
    let out = planned.plan.outputs[0].0;
    // A fresh copy of the output's node, which no step defines, and a
    // node the plan does not have.
    for node in [planned.plan.nodes.len(), usize::MAX] {
        let mut forged = planned.clone();
        let twin = forged.plan.nodes[out].clone();
        forged.plan.nodes.push(twin);
        forged.plan.outputs[0].0 = node;
        let err = analyze::check_liveness(&p, &forged, &cfg).unwrap_err();
        assert!(
            err.contains("V19") && err.contains("no step defines"),
            "{err}"
        );
        let err = analyze::verify_planned(&p, &forged, &cfg, 4).unwrap_err();
        assert!(err.contains("V19") || err.contains("V12"), "{err}");
    }
}

#[test]
fn understated_certificate_is_caught_as_v20() {
    let (p, mut planned, cfg) = tamper_subject();
    for b in &mut planned.certificate.per_step {
        *b = b.saturating_sub(1);
    }
    planned.certificate.peak = planned.certificate.peak.saturating_sub(1);
    let err = analyze::check_liveness(&p, &planned, &cfg).unwrap_err();
    assert!(err.contains("V20"), "{err}");
}

#[test]
fn overstated_resident_metering_is_caught_as_v21() {
    analyze::install_session_verifier();
    let (p, _, _) = tamper_subject();
    let mut sess = Session::builder()
        .workers(WORKERS)
        .local_threads(2)
        .block_size(BLOCK)
        .seed(SEED)
        .build();
    let prep = sess.prepare(&p).unwrap();
    let mut report = sess.run_prepared(&prep).unwrap();
    analyze::check_observed(prep.certificate(), &report.trace).expect("honest trace verifies");
    report.trace.steps[0].resident_bytes = prep.certificate().per_step[0] + 1;
    let err = analyze::check_observed(prep.certificate(), &report.trace).unwrap_err();
    assert!(err.contains("V21"), "{err}");
}
