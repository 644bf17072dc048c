//! Golden-trace snapshots: the flight-recorder summary of GNMF and
//! PageRank is pinned — stage count, step count, the per-stage sequence
//! of primitive choices (broadcast/partition/RMM1/RMM2/CPMM/cell-wise),
//! and the per-stage predicted / actual / wire byte totals.
//!
//! These are change detectors for the planner and the runtime at once: a
//! different strategy choice, a re-ordered stage schedule, a changed cost
//! formula, or a metering change all show up as a diff against the pinned
//! text. The summary deliberately excludes timing and pool counters
//! (nondeterministic across hosts); everything pinned here is bit-stable
//! for a fixed seed. When a change is *intentional*, re-run with
//! `--nocapture` on failure and update the constant.

use dmac::apps::{Gnmf, PageRank};
use dmac::core::Session;

fn session() -> Session {
    Session::builder()
        .workers(4)
        .local_threads(1)
        .block_size(8)
        .seed(11)
        .build()
}

// Pinned against the default planner: these workloads sit *under* the
// planner's 32-block fusion gate, so cell-wise chains stay unfused here
// (Cell(*) steps, not Fused(2) — see tests/fusion_equivalence.rs for the
// fused path). A release is not a step: each intermediate dies in or
// right after the step that last reads it, so no entry is a `free`. The trailing
// `spill:` line is the third trace channel: durable-tier traffic, zero
// for these purely in-memory runs. The `pred` totals are nnz-costed: on
// these sparse inputs the stages that acquire the link / V matrices
// predict fewer bytes than the worst-case Table-2 numbers; dense stages
// are byte-identical to the static formula. The first stage's `actual` /
// `wire` pair is the one number here that follows the CSC layout: the
// partition moves 8×8 link tiles, those with fewer than 4 non-empty
// columns keep pointers for those columns only, and the pair read
// 3004 / 1980 while every tile held 9. Re-recorded once for the hoisted
// teleport: `PageRank::build` scales `D` before the loop, so iterations two
// and three no longer carry their own Unary + partition + two frees of it
// (39 steps -> 31, 512 predicted bytes fewer) and an iteration is
// broadcast -> RMM1 -> Unary -> Cell. Re-recorded when a tile-wise step
// began consuming the inputs it reads last: their `free` entries are gone
// (29 steps -> 19; the multiplies' inputs are still freed after them),
// every byte total is unchanged. Re-recorded when the remaining `free`
// steps became part of the step that last reads their value: the five
// `free` entries go (19 steps -> 14), every byte total is unchanged.
const PAGERANK_GOLDEN: &str = "\
workers=4 stages=4 steps=14
stage  1: pred=936 actual=1924 wire=1156 [partition,RMM1]
stage  0: pred=0 actual=0 wire=0 [Unary]
stage  1: pred=256 actual=256 wire=0 [Unary,partition,Cell(c)]
stage  2: pred=1024 actual=1024 wire=768 [broadcast,RMM1,Unary,Cell(c)]
stage  3: pred=1024 actual=1024 wire=768 [broadcast,RMM1,Unary,Cell(c)]
spill: spills=0 spill_bytes=0 loads=0 load_bytes=0
";

// Re-recorded once more when a `random` source joined the placement
// search: a source generated in a scheme moves nothing. PageRank's
// starting rank vector is generated broadcast, so the first stage loses
// its `broadcast` + `free` (31 steps -> 29, 1 024 predicted bytes fewer).
// GNMF generates `W0` by row and `H0` broadcast, where first touch moved
// both after generating them hash-placed; the first iteration's plan is
// rebuilt around them (74 steps -> 64, 9 stages -> 8, 51 328 predicted
// bytes -> 44 160). And again when tile-wise steps began consuming their
// dying inputs: 21 `free` entries go (64 steps -> 43), every byte total
// is unchanged, and the first two entries trade places: the schemes are
// the same (V by row, W0 by row, H0 broadcast), but under the new
// certificates the memory guard of the placement search keeps an
// equal-priced placement that partitions `V` before `W0`'s transpose.
// Re-recorded once more when the remaining `free` steps became part of
// the step that last reads their value: the eleven `free` entries go
// (43 steps -> 32), every byte total and the stage order are unchanged.
// Re-recorded once more when the planner began rebuilding, rather than
// holding, a copy that a free dependency gives back: the first
// iteration's `H(r)` is extracted from `H(b)` once the second H-update's
// multiply has last read `H(b)`, and the output `H(r)` is transposed back
// from `Hᵀ(c)` once the last W-update's multiply has read it (32 steps ->
// 34). The two local steps
// run in the stages of the copies they read (3 and 5), so each splits the
// line it lands in; the stage count and every byte total are unchanged.
// Re-recorded once more when a transpose became a view an operand reads
// through, not a step: the seven `transpose` entries go (34 steps -> 27)
// — among them the rebuild that transposed `Hᵀ(c)` back, since no copy of
// `Hᵀ` is held any more — and the lines they split join again; the stage
// count, the strategies and every byte total are unchanged.
const GNMF_GOLDEN: &str = "\
workers=4 stages=8 steps=27
stage  1: pred=3200 actual=5664 wire=4344 [partition]
stage  2: pred=8192 actual=8192 wire=6144 [CPMM]
stage  1: pred=2048 actual=2048 wire=1536 [CPMM,RMM2]
stage  0: pred=0 actual=0 wire=0 [extract]
stage  2: pred=0 actual=0 wire=0 [Cell(r),Cell(r)]
stage  3: pred=8192 actual=8192 wire=6144 [broadcast,RMM2,RMM1]
stage  4: pred=2048 actual=2048 wire=1536 [broadcast,RMM2]
stage  3: pred=0 actual=0 wire=0 [Cell(r)]
stage  4: pred=0 actual=0 wire=0 [Cell(r)]
stage  5: pred=10240 actual=10240 wire=7680 [CPMM,CPMM,RMM2]
stage  3: pred=0 actual=0 wire=0 [extract]
stage  5: pred=0 actual=0 wire=0 [Cell(r),Cell(r)]
stage  6: pred=8192 actual=8192 wire=6144 [broadcast,RMM2,RMM1]
stage  7: pred=2048 actual=2048 wire=1536 [broadcast,RMM2]
stage  6: pred=0 actual=0 wire=0 [Cell(r)]
stage  7: pred=0 actual=0 wire=0 [Cell(r)]
spill: spills=0 spill_bytes=0 loads=0 load_bytes=0
";

#[test]
fn pagerank_trace_matches_golden() {
    let cfg = PageRank {
        nodes: 32,
        link_sparsity: 0.25,
        damping: 0.85,
        iterations: 3,
    };
    let g = dmac::data::powerlaw_graph(cfg.nodes, 128, 8, 3);
    let mut s = session();
    let (report, _) = cfg.run(&mut s, &g).unwrap();
    let got = report.trace.golden_summary();
    assert_eq!(
        got, PAGERANK_GOLDEN,
        "PageRank trace diverged from golden\n--- got ---\n{got}"
    );
    // The trace is also reachable through the session facade.
    assert_eq!(s.last_trace().unwrap().golden_summary(), got);
}

#[test]
fn gnmf_trace_matches_golden() {
    let cfg = Gnmf {
        rows: 48,
        cols: 32,
        sparsity: 0.3,
        rank: 8,
        iterations: 2,
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 8, 5);
    let mut s = session();
    let (report, _) = cfg.run(&mut s, v).unwrap();
    let got = report.trace.golden_summary();
    assert_eq!(
        got, GNMF_GOLDEN,
        "GNMF trace diverged from golden\n--- got ---\n{got}"
    );
}

/// The golden summary is a pure function of (program, data, seed): two
/// identical runs must render identical summaries, byte for byte.
#[test]
fn golden_summary_is_deterministic_across_runs() {
    let cfg = Gnmf {
        rows: 48,
        cols: 32,
        sparsity: 0.3,
        rank: 8,
        iterations: 2,
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, 8, 5);
    let render = || {
        let mut s = session();
        let (report, _) = cfg.run(&mut s, v.clone()).unwrap();
        report.trace.golden_summary()
    };
    assert_eq!(render(), render());
}

/// Chrome-trace export of a real run produces structurally sound JSON:
/// balanced braces/brackets, one complete event per step at minimum, and
/// the per-step byte annotations present.
#[test]
fn chrome_export_of_real_run_is_well_formed() {
    let cfg = PageRank {
        nodes: 32,
        link_sparsity: 0.25,
        damping: 0.85,
        iterations: 2,
    };
    let g = dmac::data::powerlaw_graph(cfg.nodes, 128, 8, 3);
    let mut s = session();
    let (report, _) = cfg.run(&mut s, &g).unwrap();
    let json = report.trace.to_chrome_json();
    let balance = |open: char, close: char| {
        json.chars().filter(|&c| c == open).count() == json.chars().filter(|&c| c == close).count()
    };
    assert!(balance('{', '}'), "unbalanced braces");
    assert!(balance('[', ']'), "unbalanced brackets");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(
        json.matches("\"ph\":\"X\"").count() >= report.trace.steps.len(),
        "at least one complete event per step"
    );
    assert!(json.contains("\"predicted_bytes\""));
    assert!(json.contains("\"actual_bytes\""));
    assert!(json.contains("\"workers\":4"));
}
