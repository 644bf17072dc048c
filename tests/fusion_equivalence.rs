//! Property test for the fusion pass: for random programs, shapes, and
//! sparsities, a fused run — cell-wise chains, and the RMM products they
//! read folded in as leaves — must be **bit-for-bit identical** to an
//! unfused run — same output bits, same communication bytes.
//!
//! The unfused reference is the production planner's own plan for the
//! same program with every intermediate pinned as an output
//! ([`common::pin_all_intermediates`]): outputs are never absorbed into a
//! fused group, so that plan keeps one plain step per operator. Grids are
//! sized at or above the planner's 32-block fusion gate so the default
//! configuration fuses.
//!
//! The fused kernel is contracted to apply exactly the per-cell `f64`
//! operation sequence of the unfused operator chain (including cell_div's
//! `b == 0 → 0` convention) and to mirror the dense/sparse representation
//! rules of the `Block` operators, so equality here is exact `==` on the
//! dense rendering — no tolerance.
//!
//! A plan step that was *not* fused runs through the same per-tile entry
//! point as a one-operator program; `one_operator_programs_are_the_block_methods`
//! pins that such a program is the `Block` method itself.
//!
//! Cases are drawn from the in-tree [`SplitMix64`] generator with fixed
//! seeds (`tests/prop_kernels.rs` style): every run checks the same
//! reproducible corpus and a failing case is named by its loop index.

mod common;

use common::pin_all_intermediates;
use dmac::apps::{Gnmf, PageRank};
use dmac::core::plan::PlanStep;
use dmac::core::strategy::Strategy;
use dmac::core::Session;
use dmac::lang::{Expr, MatrixId, Program, ScalarExpr};
use dmac::matrix::exec::ResultBufferPool;
use dmac::matrix::{
    eval_fused_block, Block, BlockedMatrix, CscBlock, DenseBlock, FusedOp, SplitMix64,
};

const CASES: usize = 32;
const SEED: u64 = 0xF05E_D11A_C0DE_2024;

/// A random square binding: dense or sparse, entries in [-4, 4).
fn binding(rng: &mut SplitMix64, n: usize, block: usize) -> BlockedMatrix {
    if rng.below(2) == 0 {
        let d = DenseBlock::from_fn(n, n, |_, _| rng_cell(rng));
        BlockedMatrix::from_dense(d, block).unwrap()
    } else {
        let count = rng.below(n * n / 2 + 1);
        let trips = (0..count)
            .map(|_| (rng.below(n), rng.below(n), rng.range_f64(-4.0, 4.0)))
            .collect::<Vec<_>>();
        BlockedMatrix::from_triplets(n, n, block, trips).unwrap()
    }
}

fn rng_cell(rng: &mut SplitMix64) -> f64 {
    // Mix exact zeros in so cell_div's zero-divisor convention and the
    // sparse representation rules are exercised.
    if rng.below(4) == 0 {
        0.0
    } else {
        rng.range_f64(-4.0, 4.0)
    }
}

/// Build a random DAG of cell-wise ops and matmuls: a matmul may force a
/// communication boundary through the middle of the expression, or, run
/// as RMM1 / RMM2 and read once by a cell-wise op, become a product leaf
/// of that op's fused step. Returns the program and the expressions pinned
/// as outputs.
fn random_program(rng: &mut SplitMix64, n: usize, leaves: usize) -> (Program, Vec<Expr>) {
    let mut p = Program::new();
    let mut pool: Vec<Expr> = (0..leaves)
        .map(|i| p.load(&format!("L{i}"), n, n, 0.4))
        .collect();
    let ops = 3 + rng.below(6);
    for _ in 0..ops {
        let a = pool[rng.below(pool.len())];
        let e = match rng.below(10) {
            0 => {
                let b = pool[rng.below(pool.len())];
                p.add(a, b).unwrap()
            }
            1 => {
                let b = pool[rng.below(pool.len())];
                p.sub(a, b).unwrap()
            }
            2 | 3 => {
                let b = pool[rng.below(pool.len())];
                p.cell_mul(a, b).unwrap()
            }
            4 => {
                let b = pool[rng.below(pool.len())];
                p.cell_div(a, b).unwrap()
            }
            5 => p.scale_const(a, rng.range_f64(-2.0, 2.0)).unwrap(),
            6 => p
                .add_scalar(a, ScalarExpr::c(rng.range_f64(-1.0, 1.0)))
                .unwrap(),
            _ => {
                // square matrices: matmul is always shape-legal and plants
                // a communication step in the middle of the DAG
                let b = pool[rng.below(pool.len())];
                p.matmul(a, b).unwrap()
            }
        };
        pool.push(e);
    }
    // Pin the final expression plus a random mid-DAG node: outputs must
    // never be absorbed into a fused group, so this exercises the
    // is-an-output exclusion too.
    let mut outs = vec![*pool.last().unwrap()];
    let extra = pool[rng.below(pool.len())];
    if extra.id != outs[0].id {
        outs.push(extra);
    }
    for e in &outs {
        p.output(*e);
    }
    (p, outs)
}

/// What one run exposes to the comparisons below.
struct Run {
    /// Dense rendering of each requested output.
    values: Vec<DenseBlock>,
    shuffle_bytes: u64,
    broadcast_bytes: u64,
    /// The trace's step kinds (`"Fused(2)"`, `"Cell(r)"`, `"RMM1"`, …).
    kinds: Vec<String>,
    /// Per fused step of the plan: its output matrix, its cell-wise
    /// program and the strategies of the products it folds.
    fused: Vec<(MatrixId, Vec<FusedOp<ScalarExpr>>, Vec<Strategy>)>,
}

impl Run {
    fn fused_steps(&self) -> usize {
        self.kinds.iter().filter(|k| k.starts_with("Fused")).count()
    }

    fn products(&self) -> usize {
        self.fused.iter().map(|f| f.2.len()).sum()
    }

    fn cell_steps(&self) -> usize {
        self.kinds.iter().filter(|k| k.starts_with("Cell(")).count()
    }
}

/// Run `program` under the default planner and gather `outs`.
fn run(
    program: &Program,
    outs: &[Expr],
    bindings: &[(String, BlockedMatrix)],
    block: usize,
) -> Run {
    let mut s = Session::builder()
        .workers(3)
        .local_threads(2)
        .block_size(block)
        .seed(7)
        .build();
    for (name, m) in bindings {
        s.bind(name, m.clone()).unwrap();
    }
    let prep = s.prepare(program).unwrap();
    let plan = prep.plan();
    let fused = (plan.steps.iter())
        .filter_map(|st| match st {
            PlanStep::Fused {
                prog,
                products,
                out,
                ..
            } => {
                let strategies = products.iter().map(|p| p.strategy).collect();
                Some((plan.nodes[*out].matrix, prog.clone(), strategies))
            }
            _ => None,
        })
        .collect();
    let report = s.run_prepared(&prep).unwrap();
    let values = outs
        .iter()
        .map(|&e| s.value(e).unwrap().to_dense())
        .collect();
    let comm = s.cluster_mut().comm();
    Run {
        values,
        shuffle_bytes: comm.shuffle_bytes(),
        broadcast_bytes: comm.broadcast_bytes(),
        kinds: report
            .trace
            .steps
            .iter()
            .map(|st| st.kind.clone())
            .collect(),
        fused,
    }
}

/// Run `program` fused (as planned) and unfused (all intermediates
/// pinned) and require identical output bits and communication bytes.
/// Returns the fused run for shape assertions.
fn assert_fused_matches_unfused(
    what: &str,
    program: &Program,
    outs: &[Expr],
    bindings: &[(String, BlockedMatrix)],
    block: usize,
) -> Run {
    let fused = run(program, outs, bindings, block);
    let unfused = run(&pin_all_intermediates(program), outs, bindings, block);
    assert_eq!(
        unfused.fused_steps(),
        0,
        "{what}: the all-pinned reference must not fuse: {:?}",
        unfused.kinds
    );
    for (k, (f, u)) in fused.values.iter().zip(&unfused.values).enumerate() {
        assert_eq!(
            f, u,
            "{what}: output {k} diverged between fused and unfused"
        );
    }
    assert_eq!(
        fused.shuffle_bytes, unfused.shuffle_bytes,
        "{what}: fusion changed shuffle bytes"
    );
    assert_eq!(
        fused.broadcast_bytes, unfused.broadcast_bytes,
        "{what}: fusion changed broadcast bytes"
    );
    fused
}

/// Fused and unfused runs agree bit-for-bit on every output and meter
/// identical communication bytes, across random programs/shapes/sparsity.
#[test]
fn fused_runs_are_bit_identical_to_unfused() {
    let (mut fused_cases, mut product_cases) = (0, 0);
    for case in 0..CASES {
        let mut rng = SplitMix64::new(SEED ^ case as u64);
        // At least 6 strips a side: every grid clears the 32-block gate.
        let n = 12 + rng.below(21); // 12..32
        let block = rng.range_inclusive(2, n / 6);
        let leaves = 2 + rng.below(3);
        let (program, outs) = random_program(&mut rng, n, leaves);
        let bindings: Vec<(String, BlockedMatrix)> = (0..leaves)
            .map(|i| (format!("L{i}"), binding(&mut rng, n, block)))
            .collect();

        let fused = assert_fused_matches_unfused(
            &format!("case {case}"),
            &program,
            &outs,
            &bindings,
            block,
        );
        fused_cases += usize::from(fused.fused_steps() > 0);
        product_cases += usize::from(fused.products() > 0);
    }
    // The corpus must exercise the pass, not just the reference.
    assert!(
        fused_cases >= CASES / 2,
        "only {fused_cases} of {CASES} cases fused anything"
    );
    assert!(
        product_cases >= CASES / 8,
        "only {product_cases} of {CASES} cases folded a product"
    );
}

fn chain_bindings(rng: &mut SplitMix64, n: usize, block: usize) -> Vec<(String, BlockedMatrix)> {
    ["W", "NUM", "DEN"]
        .iter()
        .map(|name| (name.to_string(), binding(rng, n, block)))
        .collect()
}

/// The GNMF update shape `w .* num ./ den` over square `n×n` inputs.
fn update_chain(n: usize) -> (Program, Expr) {
    let mut p = Program::new();
    let w = p.load("W", n, n, 1.0);
    let num = p.load("NUM", n, n, 1.0);
    let den = p.load("DEN", n, n, 1.0);
    let prod = p.cell_mul(w, num).unwrap();
    let upd = p.cell_div(prod, den).unwrap();
    p.output(upd);
    (p, upd)
}

/// The flagship GNMF chain `w .* num ./ den` fuses on a 36-block grid
/// (the fused step actually appears in the trace) and stays bit-identical.
#[test]
fn gnmf_chain_fuses_and_matches() {
    let mut rng = SplitMix64::new(SEED ^ 0xABCD);
    let (n, block) = (12, 2);
    let (p, upd) = update_chain(n);
    let bindings = chain_bindings(&mut rng, n, block);
    let fused = assert_fused_matches_unfused("chain", &p, &[upd], &bindings, block);
    assert!(
        fused.kinds.iter().any(|k| k == "Fused(2)"),
        "expected a Fused(2) step, got {:?}",
        fused.kinds
    );
    assert_eq!(
        fused.cell_steps(),
        0,
        "cell-wise steps should be fused away, got {:?}",
        fused.kinds
    );
}

/// Chains whose output spans fewer blocks than the planner's size gate
/// are left unfused (fusing them costs more in per-step overhead than the
/// skipped materialisations save) — and the result is still the same bits.
#[test]
fn size_gate_skips_tiny_chains() {
    let mut rng = SplitMix64::new(SEED ^ 0x7EA1);
    let (n, block) = (12, 4); // 3×3 = 9 blocks, far under the gate
    let (p, upd) = update_chain(n);
    let bindings = chain_bindings(&mut rng, n, block);
    let gated = assert_fused_matches_unfused("tiny chain", &p, &[upd], &bindings, block);
    assert_eq!(
        gated.fused_steps(),
        0,
        "tiny chain must not fuse: {:?}",
        gated.kinds
    );
    // The same data reblocked over the gate fuses — to the same bits.
    let fused = run(&p, &[upd], &bindings, 2);
    assert!(fused.fused_steps() > 0, "{:?}", fused.kinds);
    assert_eq!(fused.values[0], gated.values[0]);
}

/// The real applications at grids over the gate: every GNMF update chain
/// runs as a fused step with no plain cell-wise step left, and each
/// W-update `W * (V Hᵀ) / (W H Hᵀ)` folds its two RMM2 products;
/// PageRank's walk `rank %*% link` (RMM1) is one step with its
/// `* 0.85 + teleport`; and both match their unfused reference bit for
/// bit.
#[test]
fn applications_fuse_over_the_gate() {
    let block = 16;

    // W is 512×32 (32×2 blocks), H is 32×256 (2×16 blocks): both update
    // chains clear the gate.
    let gnmf = Gnmf {
        rows: 512,
        cols: 256,
        sparsity: 0.1,
        rank: 32,
        iterations: 2,
    };
    let mut p = Program::new();
    let h = gnmf.build(&mut p).unwrap();
    let v = dmac::data::uniform_sparse(gnmf.rows, gnmf.cols, gnmf.sparsity, block, 5);
    let fused = assert_fused_matches_unfused("gnmf", &p, &[h.w, h.h], &[("V".into(), v)], block);
    assert!(fused.fused_steps() > 0, "{:?}", fused.kinds);
    assert_eq!(
        fused.cell_steps(),
        0,
        "gnmf: plain cell-wise steps left: {:?}",
        fused.kinds
    );
    let products_of = |run: &Run, m: MatrixId| {
        let step = run.fused.iter().find(|f| f.0 == m);
        step.map(|f| f.2.clone()).unwrap_or_default()
    };
    assert_eq!(
        products_of(&fused, h.w.id),
        [Strategy::Rmm2, Strategy::Rmm2],
        "gnmf: the W-update folds V Hᵀ and W·HHᵀ"
    );
    let w_updates = (fused.fused.iter())
        .filter(|f| f.2 == [Strategy::Rmm2, Strategy::Rmm2])
        .count();
    assert_eq!(w_updates, gnmf.iterations, "one per iteration");

    // rank is 1×512: 32 blocks, exactly at the gate.
    let pr = PageRank {
        nodes: 512,
        link_sparsity: 0.05,
        damping: 0.85,
        iterations: 3,
    };
    let mut p = Program::new();
    let h = pr.build(&mut p).unwrap();
    let adj = dmac::data::powerlaw_graph(pr.nodes, pr.nodes * 8, block, 3);
    let link = dmac::data::row_normalize(&adj).unwrap();
    let d = BlockedMatrix::from_fn(1, pr.nodes, block, |_, _| 1.0 / pr.nodes as f64).unwrap();
    let bindings = [("link".to_string(), link), ("D".to_string(), d)];
    let fused = assert_fused_matches_unfused("pagerank", &p, &[h.rank], &bindings, block);
    assert!(fused.fused_steps() > 0, "{:?}", fused.kinds);
    // `teleport` is read by every iteration: a plain leaf; the walk is
    // the product leaf that follows it.
    let step = fused.fused.iter().find(|f| f.0 == h.rank.id);
    let (_, prog, products) = step.expect("the last update is fused");
    assert_eq!(products, &[Strategy::Rmm1]);
    let damped = [
        FusedOp::Leaf(1),
        FusedOp::Scale(ScalarExpr::c(pr.damping)),
        FusedOp::Leaf(0),
        FusedOp::Add,
    ];
    assert_eq!(prog, &damped);
    assert!(
        !fused.kinds.iter().any(|k| k == "RMM1"),
        "{:?}",
        fused.kinds
    );
}

/// The unfused side of every comparison above is a chain of one-operator
/// stages, and a one-operator program is the `Block` method — not the
/// chunked interpreter's rendering of it: same bits (`-0.0`, NaN payloads,
/// `x / 0 → 0`), same representation and bytes (sparse ∘ sparse stays an
/// O(nnz) merge, `add_scalar(0.0)` keeps a sparse tile sparse), nothing
/// densified and nothing drawn from the buffer pool.
#[test]
fn one_operator_programs_are_the_block_methods() {
    let nan = f64::from_bits(0x7FF8_0000_0000_BEEF);
    let cells = [
        0.0,
        -0.0,
        nan,
        2.5,
        -1.25,
        0.0,
        f64::INFINITY,
        1e-310,
        0.0,
        -3.0,
        0.0,
        7.0,
    ];
    let dense = |shift: usize| {
        let v = (0..12).map(|i| cells[(i + shift) % 12]).collect();
        Block::Dense(DenseBlock::from_vec(3, 4, v).unwrap())
    };
    // Stored items include the NaN and explicit zeros of both signs;
    // column 2 is empty.
    let sparse = |shift: usize| {
        let vals = (0..5).map(|i| cells[(1 + i + shift) % 12]).collect();
        let csc = CscBlock::from_csc(3, 4, vec![0, 2, 3, 3, 5], vec![0, 2, 1, 0, 2], vals);
        Block::Sparse(csc.unwrap())
    };
    let operands = [dense(0), dense(5), sparse(0), sparse(4)];
    let pool = ResultBufferPool::new(2);
    let check = |what: String, prog: &[FusedOp], leaves: &[&Block], want: Block| {
        let before = pool.stats();
        let got = eval_fused_block(prog, leaves, &pool).unwrap();
        assert!(got.bits_eq(&want), "{what}: {got:?} != {want:?}");
        assert_eq!(got.is_sparse(), want.is_sparse(), "{what}");
        assert_eq!(got.actual_bytes(), want.actual_bytes(), "{what}");
        assert_eq!(pool.stats(), before, "{what}: drew from the pool");
    };

    for (i, a) in operands.iter().enumerate() {
        for (j, b) in operands.iter().enumerate() {
            for (op, want) in [
                (FusedOp::Add, a.add(b)),
                (FusedOp::Sub, a.sub(b)),
                (FusedOp::CellMul, a.cell_mul(b)),
                (FusedOp::CellDiv, a.cell_div(b)),
            ] {
                let what = format!("{op:?} of operands {i}, {j}");
                let prog = [FusedOp::Leaf(0), FusedOp::Leaf(1), op];
                check(what, &prog, &[a, b], want.unwrap());
            }
        }
        for c in [0.0, -0.0, nan, 2.5, f64::NEG_INFINITY] {
            for (op, want) in [
                (FusedOp::Scale(c), a.scale(c)),
                (FusedOp::AddScalar(c), a.add_scalar(c)),
            ] {
                let what = format!("{op:?} of operand {i}");
                check(what, &[FusedOp::Leaf(0), op], &[a], want);
            }
        }
    }
    // Both sparse: the sum is sparse and holds no more than the union.
    let sum = eval_fused_block(
        &[FusedOp::Leaf(0), FusedOp::Leaf(1), FusedOp::Add],
        &[&operands[2], &operands[3]],
        &pool,
    )
    .unwrap();
    assert!(sum.is_sparse() && sum.actual_bytes() < dense(0).actual_bytes());
    // One operator more and the interpreter runs: the pool is drawn from.
    let before = pool.stats();
    let two = [
        FusedOp::Leaf(0),
        FusedOp::Scale(2.0),
        FusedOp::AddScalar(1.0),
    ];
    eval_fused_block(&two, &[&operands[0]], &pool).unwrap();
    assert_ne!(pool.stats(), before);
}
