//! Cost-model conformance: for every Table 2 dependency type, the bytes
//! the cluster *actually* moves (in cost-model event units) must equal
//! the planner's predicted `0` / `|A|` / `N·|A|` (input events) and
//! `N·|AB|` (CPMM output event) — byte for byte — when the data is fully
//! dense (so the worst-case `|A| = 8·rows·cols` size estimate is exact).
//!
//! Each test builds a small dense program whose plan is known to exercise
//! a dependency type, runs it with the flight recorder on, and checks the
//! per-step `(predicted, actual)` pairs from `Trace::conformance()`.

use dmac::core::baselines::SystemKind;
use dmac::core::trace::Trace;
use dmac::core::Session;
use dmac::lang::Program;
use dmac::matrix::BlockedMatrix;

const BLOCK: usize = 8;
const WORKERS: usize = 4;
const N: u64 = WORKERS as u64;

/// `|A|` in cost-model units for a dense `r × c` matrix.
fn size(r: usize, c: usize) -> u64 {
    8 * r as u64 * c as u64
}

fn dense(r: usize, c: usize, seed: u64) -> BlockedMatrix {
    BlockedMatrix::from_fn(r, c, BLOCK, |i, j| {
        1.0 + ((i * c + j) as f64 * 0.37 + seed as f64).sin()
    })
    .unwrap()
}

/// Run a program on a dense-bound DMac session and return its trace.
fn run(program: &Program, binds: &[(&str, BlockedMatrix)]) -> Trace {
    let mut s = Session::builder()
        .system(SystemKind::Dmac)
        .workers(WORKERS)
        .local_threads(1)
        .block_size(BLOCK)
        .seed(3)
        .build();
    for (name, m) in binds {
        s.bind(name, m.clone()).unwrap();
    }
    let report = s.run(program).unwrap();
    assert_eq!(
        report.trace.predicted_total(),
        report.planner_estimate,
        "per-step predictions must sum to the planner's estimate"
    );
    report.trace
}

/// The operands `program`'s plan reads through views (Table 2's
/// Transpose dependency, no step), labelled as they read: `At(b)`.
fn views(program: &Program, binds: &[(&str, BlockedMatrix)]) -> Vec<String> {
    let mut s = Session::builder()
        .system(SystemKind::Dmac)
        .workers(WORKERS)
        .local_threads(1)
        .block_size(BLOCK)
        .seed(3)
        .build();
    for (name, m) in binds {
        s.bind(name, m.clone()).unwrap();
    }
    let plan = s.plan_only(program).unwrap();
    let operands = plan.steps.iter().flat_map(|st| st.operands());
    let viewed = operands.filter(|o| o.transposed);
    viewed.map(|o| plan.operand_label(program, o)).collect()
}

/// Every `(predicted, actual)` pair must match exactly on dense data.
fn assert_exact(trace: &Trace) {
    for c in trace.conformance() {
        assert_eq!(
            c.predicted, c.actual,
            "step {} ({} {}): predicted {} != actual {}",
            c.step, c.kind, c.label, c.predicted, c.actual
        );
    }
    assert_eq!(trace.predicted_total(), trace.actual_total());
    assert!(trace.overshoots().is_empty());
}

/// Predicted bytes of all steps of one kind, in plan order.
fn predicted_of(trace: &Trace, kind: &str) -> Vec<u64> {
    trace
        .steps
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.predicted_bytes)
        .collect()
}

/// Partition dependency (`Hash → Row/Col`) costs `|A|`; Broadcast costs
/// `N·|A|`. A vector–matrix multiply forces both: the rank vector is
/// broadcast, the link matrix is partitioned column-wise.
#[test]
fn partition_costs_size_and_broadcast_costs_n_times_size() {
    let mut p = Program::new();
    let rank = p.load("rank", 1, 64, 1.0);
    let link = p.load("link", 64, 64, 1.0);
    let out = p.matmul(rank, link).unwrap();
    p.output(out);
    let trace = run(&p, &[("rank", dense(1, 64, 1)), ("link", dense(64, 64, 2))]);
    assert_exact(&trace);
    assert_eq!(
        predicted_of(&trace, "broadcast"),
        vec![N * size(1, 64)],
        "broadcast of the 1×64 vector must cost N·|A|\n{}",
        trace.conformance_table()
    );
    assert_eq!(
        predicted_of(&trace, "partition"),
        vec![size(64, 64)],
        "partition of the 64×64 link must cost |A|\n{}",
        trace.conformance_table()
    );
}

/// Reference and Transpose dependencies are communication-free: reusing a
/// matrix already in the right scheme, or reading it through a view as
/// its transpose, predicts and measures 0 bytes — and a Transpose is no
/// step at all, only an operand's bit.
#[test]
fn reference_and_transpose_cost_zero() {
    let mut p = Program::new();
    let a = p.load("A", 32, 32, 1.0);
    let b = p.load("B", 32, 32, 1.0);
    let g = p.matmul(a.t(), a).unwrap(); // transpose dependency on A
    let h1 = p.add(g, b).unwrap();
    let h2 = p.sub(g, b).unwrap(); // second uses of g, b: references
    p.output(h1);
    p.output(h2);
    let binds = [("A", dense(32, 32, 3)), ("B", dense(32, 32, 4))];
    let trace = run(&p, &binds);
    assert_exact(&trace);
    let free_kinds = ["extract"];
    let mut free_steps = 0;
    for s in &trace.steps {
        if free_kinds.contains(&s.kind.as_str()) {
            assert_eq!(
                s.predicted_bytes, 0,
                "{} {} must predict 0",
                s.kind, s.label
            );
            assert_eq!(s.actual_bytes, 0, "{} {} must measure 0", s.kind, s.label);
            free_steps += 1;
        }
    }
    assert!(
        free_steps > 0,
        "plan must contain at least one free dependency step\n{}",
        trace.conformance_table()
    );
    assert!(
        trace.steps.iter().all(|s| s.kind != "transpose"),
        "Aᵀ is no step\n{}",
        trace.conformance_table()
    );
    let viewed = views(&p, &binds);
    assert!(
        viewed.iter().any(|v| v.starts_with("At(")),
        "Aᵀ must be read through a view: {viewed:?}"
    );
}

/// The kinds of the steps in plan order, each step of a kind in `free`
/// checked to predict and measure 0 bytes.
fn kinds_with_free(trace: &Trace, free: &[&str]) -> Vec<String> {
    for s in trace
        .steps
        .iter()
        .filter(|s| free.contains(&s.kind.as_str()))
    {
        assert_eq!(
            s.predicted_bytes, 0,
            "{} {} must predict 0",
            s.kind, s.label
        );
        assert_eq!(s.actual_bytes, 0, "{} {} must measure 0", s.kind, s.label);
    }
    trace.steps.iter().map(|s| s.kind.clone()).collect()
}

/// Extract dependency: a broadcast copy is filtered locally down to the
/// Row/Column scheme a later reader wants. `S` is broadcast once, as the
/// small side of `S·C`; the cell-wise `S + D` then reads its own share of
/// that copy through an `extract` that predicts and measures 0 bytes.
/// Multiplication-first order plans `S·C` before the add, so the add
/// finds `S(b)` already held: an Extract dependency, not a partition that
/// Pull-Up Broadcast rewrote.
#[test]
fn extract_from_a_broadcast_copy_costs_zero() {
    let mut p = Program::new();
    let s = p.load("S", 8, 8, 1.0);
    let c = p.load("C", 8, 256, 1.0);
    let d = p.load("D", 8, 8, 1.0);
    let sc = p.matmul(s, c).unwrap();
    let sd = p.add(s, d).unwrap();
    p.output(sc);
    p.output(sd);
    let binds = [
        ("S", dense(8, 8, 8)),
        ("C", dense(8, 256, 9)),
        ("D", dense(8, 8, 10)),
    ];
    let trace = run(&p, &binds);
    assert_exact(&trace);
    let table = trace.conformance_table();
    assert_eq!(
        predicted_of(&trace, "broadcast"),
        vec![N * size(8, 8)],
        "{table}"
    );
    let kinds = kinds_with_free(&trace, &["extract"]);
    let extract = kinds.iter().position(|k| k == "extract");
    let broadcast = kinds.iter().position(|k| k == "broadcast");
    assert!(
        matches!((broadcast, extract), (Some(b), Some(e)) if b < e),
        "S(b) must be extracted after its broadcast\n{table}"
    );
}

/// Extract-Transpose dependency: the reader wants the *transpose* of a
/// broadcast copy, Row/Column-partitioned. The copy is extracted to the
/// flipped scheme and read through a view: the extract predicts and
/// measures 0 bytes, the transpose is no step, and `S` moves once, in its
/// broadcast.
#[test]
fn extract_transpose_from_a_broadcast_copy_costs_zero() {
    let mut p = Program::new();
    let s = p.load("S", 8, 8, 1.0);
    let c = p.load("C", 8, 256, 1.0);
    let d = p.load("D", 8, 8, 1.0);
    let sc = p.matmul(s, c).unwrap();
    let std = p.add(s.t(), d).unwrap();
    p.output(sc);
    p.output(std);
    let binds = [
        ("S", dense(8, 8, 11)),
        ("C", dense(8, 256, 12)),
        ("D", dense(8, 8, 13)),
    ];
    let trace = run(&p, &binds);
    assert_exact(&trace);
    let table = trace.conformance_table();
    assert_eq!(
        predicted_of(&trace, "broadcast"),
        vec![N * size(8, 8)],
        "{table}"
    );
    let kinds = kinds_with_free(&trace, &["extract"]);
    assert!(
        kinds.iter().any(|k| k == "extract") && kinds.iter().all(|k| k != "transpose"),
        "Sᵀ must be an extract of S(b), read through a view\n{table}"
    );
    let viewed = views(&p, &binds);
    assert!(
        viewed.iter().any(|v| v == "St(r)" || v == "St(c)"),
        "Sᵀ must be read through a view of the extract: {viewed:?}"
    );
}

/// The CPMM output event costs `N·|AB|` (each worker ships a full-size
/// partial of the result). A tall gram matrix `TᵀT` with the shared
/// dimension split across ≥ N blocks makes CPMM the planner's choice and
/// the partials fully dense.
#[test]
fn cpmm_output_costs_n_times_result_size() {
    let mut p = Program::new();
    let t = p.load("T", 64, 8, 1.0);
    let gram = p.matmul(t.t(), t).unwrap(); // 8×8
    p.output(gram);
    let trace = run(&p, &[("T", dense(64, 8, 5))]);
    assert_exact(&trace);
    assert_eq!(
        predicted_of(&trace, "CPMM"),
        vec![N * size(8, 8)],
        "CPMM output event must cost N·|AB|\n{}",
        trace.conformance_table()
    );
}

/// Transpose-Partition: a transposed operand that must land in a
/// partitioned scheme is realised as a partition of its source charging
/// `|A|`, read through a view; Transpose-Broadcast analogously is a
/// broadcast of the source charging `N·|A|`. Both stay exact on dense
/// data.
#[test]
fn transpose_partition_and_transpose_broadcast_conform() {
    let mut p = Program::new();
    let a = p.load("A", 64, 64, 1.0);
    let w = p.load("W", 8, 64, 1.0);
    let out = p.matmul(a, w.t()).unwrap(); // 64×8: Wᵀ is the small side
    p.output(out);
    let trace = run(&p, &[("A", dense(64, 64, 6)), ("W", dense(8, 64, 7))]);
    assert_exact(&trace);
    let broadcasts = predicted_of(&trace, "broadcast");
    assert_eq!(
        broadcasts,
        vec![N * size(8, 64)],
        "Wᵀ must be broadcast at N·|W|\n{}",
        trace.conformance_table()
    );
}

/// An iterative dense program conforms exactly end-to-end: three unrolled
/// PageRank iterations where every step's measured event bytes equal its
/// prediction, including the re-broadcast of each computed rank vector
/// and the one-time partition of the loop-invariant link matrix.
#[test]
fn dense_pagerank_conforms_exactly_across_iterations() {
    let cfg = dmac::apps::PageRank {
        nodes: 64,
        link_sparsity: 1.0,
        damping: 0.85,
        iterations: 3,
    };
    let adj = BlockedMatrix::from_fn(cfg.nodes, cfg.nodes, BLOCK, |_, _| 1.0).unwrap();
    let mut s = Session::builder()
        .workers(WORKERS)
        .local_threads(1)
        .block_size(BLOCK)
        .seed(17)
        .build();
    let (report, _) = cfg.run(&mut s, &adj).unwrap();
    let trace = &report.trace;
    assert_exact(trace);
    // The link matrix is partitioned once (|link| = 8·64·64); each rank
    // vector an iteration computes is broadcast to the next (N·|rank|).
    // The random starting vector is generated broadcast, so it moves
    // nothing: two broadcasts for three iterations.
    let broadcasts = predicted_of(trace, "broadcast");
    assert_eq!(broadcasts, vec![N * size(1, 64); 2]);
    assert!(predicted_of(trace, "partition").contains(&size(64, 64)));
}

/// SystemML-S (dependency-blind) runs also conform: its hash-everything
/// plans predict and measure the same bytes — the model is about
/// dependencies, not about which planner uses it.
#[test]
fn systemml_baseline_conforms_on_dense_data() {
    let mut p = Program::new();
    let rank = p.load("rank", 1, 64, 1.0);
    let link = p.load("link", 64, 64, 1.0);
    let out = p.matmul(rank, link).unwrap();
    p.output(out);
    let mut s = Session::builder()
        .system(SystemKind::SystemMlS)
        .workers(WORKERS)
        .local_threads(1)
        .block_size(BLOCK)
        .seed(3)
        .build();
    s.bind("rank", dense(1, 64, 1)).unwrap();
    s.bind("link", dense(64, 64, 2)).unwrap();
    let report = s.run(&p).unwrap();
    assert_eq!(report.trace.predicted_total(), report.planner_estimate);
    assert_exact(&report.trace);
}
