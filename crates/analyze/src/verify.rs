//! Independent plan-invariant verifier.
//!
//! Re-derives, from scratch and along a code path entirely separate from
//! `dmac_core::cost`, everything the planner claims about a plan:
//!
//! * the **Table-2 dependency type** of every non-compute step and the
//!   §4.1 cost-model bytes that type implies (free → 0, partition →
//!   `|A|`, broadcast → `N·|A|`, CPMM output → `N·|AB|`), asserting
//!   **exact** per-step and total agreement with the planner's
//!   predictions and `estimated_comm`;
//! * **scheme compatibility** of every compute step's inputs against the
//!   candidate table ([`dmac_core::strategy::candidates`]), each operand
//!   as it reads: a view's bit must be the handedness the operator reads
//!   (Table 2's Transpose dependency), its scheme the node's flipped;
//! * structural legality of every extended operator (partition targets
//!   Row/Col, extract reads a broadcast copy, both relate one matrix,
//!   pulled-up broadcast+extract pairs are well-formed);
//! * plan well-formedness: nodes defined before use and at most once, no
//!   leftover flexible nodes, every program operator planned exactly
//!   once, outputs bound to their matrix;
//! * fused steps (V10): scheme-aligned leaves, a well-formed program over
//!   cell-wise members, and product leaves that are local — RMM1 / RMM2
//!   in the chain's scheme, never CPMM — and read once, by that program;
//! * the §5.2 **stage invariant**: stages are separated only by
//!   partition/broadcast (or CPMM-shuffle) boundaries;
//! * the **sparsity estimator**: every profile's shape and hard nnz cap
//!   (V14), byte-exact agreement between the planner's propagated
//!   profiles and a re-derivation of the estimator rules implemented
//!   here from the documented contract — deliberately *not* calling
//!   `dmac-stats` (V15), per-step predicted-nnz consistency (V16), and
//!   the dense anchor: all-dense sources must reproduce the worst-case
//!   Table-2 byte sizes exactly (V17).
//!
//! Installed behind `dmac_core::verifyhook`, the verifier runs on every
//! debug-build `Session::{plan, prepare, run}`, so any drift between the
//! planner's bookkeeping and its emitted plans fails loudly.

use std::collections::HashMap;

use dmac_cluster::PartitionScheme;
use dmac_core::plan::{FusedOp, Operand, Plan, PlanStep, Product};
use dmac_core::planner::{Planned, PlannerConfig};
use dmac_core::stage;
use dmac_core::strategy::{candidates, OutScheme, Strategy};
use dmac_core::SparsityProfile;
use dmac_lang::{BinOp, MatrixId, MatrixOrigin, OpKind, Program, ScalarExpr, UnaryOp};

/// What the verifier concluded (returned on success for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifySummary {
    /// Steps checked.
    pub steps: usize,
    /// Steps classified as communication.
    pub comm_steps: usize,
    /// Independently recomputed total communication bytes.
    pub recomputed_comm: u64,
    /// Number of §5.2 stages.
    pub stages: usize,
}

/// The scheme an operand reads in: its node's, or — through a view — the
/// transpose's, Row and Column swapped.
fn read_scheme(plan: &Plan, o: Operand) -> PartitionScheme {
    let scheme = plan.nodes[o.node].scheme;
    if o.transposed {
        scheme.flip()
    } else {
        scheme
    }
}

// ---------------------------------------------------------------------
// Sparsity-estimator re-derivation (V14–V17).
//
// The formulas below are written from the *documented contract* in
// `dmac-stats`' crate docs, not by calling its code: same pinned f64
// operation order, independent implementation. Agreement is asserted
// byte-exactly (`f64::to_bits`), so any drift in either side trips V15.
// ---------------------------------------------------------------------

/// The verifier's own profile record (mirrors the published contract).
#[derive(Debug, Clone, PartialEq)]
struct NnzProfile {
    rows: usize,
    cols: usize,
    nnz: u64,
    row: Vec<f64>,
    col: Vec<f64>,
}

/// Strip count along one dimension (matches the block layer: at least 1).
fn strips(len: usize, block: usize) -> usize {
    len.div_ceil(block.max(1)).max(1)
}

/// Length of strip `i`.
fn strip(len: usize, block: usize, i: usize) -> usize {
    (len - i * block).min(block)
}

impl NnzProfile {
    fn dense(rows: usize, cols: usize, block: usize) -> NnzProfile {
        NnzProfile {
            rows,
            cols,
            nnz: rows as u64 * cols as u64,
            row: (0..strips(rows, block))
                .map(|i| (strip(rows, block, i) * cols) as f64)
                .collect(),
            col: (0..strips(cols, block))
                .map(|j| (rows * strip(cols, block, j)) as f64)
                .collect(),
        }
    }

    fn flipped(&self) -> NnzProfile {
        NnzProfile {
            rows: self.cols,
            cols: self.rows,
            nnz: self.nnz,
            row: self.col.clone(),
            col: self.row.clone(),
        }
    }
}

/// Add/Sub: union bound, saturating at matrix and per-strip capacity.
fn rederive_sum(a: &NnzProfile, b: &NnzProfile, block: usize) -> NnzProfile {
    let (rows, cols) = (a.rows, a.cols);
    NnzProfile {
        rows,
        cols,
        nnz: a.nnz.saturating_add(b.nnz).min(rows as u64 * cols as u64),
        row: (0..a.row.len())
            .map(|i| {
                let cap = (strip(rows, block, i) * cols) as f64;
                (a.row[i] + b.row[i]).min(cap)
            })
            .collect(),
        col: (0..a.col.len())
            .map(|j| {
                let cap = (rows * strip(cols, block, j)) as f64;
                (a.col[j] + b.col[j]).min(cap)
            })
            .collect(),
    }
}

/// CellMul/CellDiv: intersection bound, element-wise min.
fn rederive_min(a: &NnzProfile, b: &NnzProfile) -> NnzProfile {
    NnzProfile {
        rows: a.rows,
        cols: a.cols,
        nnz: a.nnz.min(b.nnz),
        row: (0..a.row.len()).map(|i| a.row[i].min(b.row[i])).collect(),
        col: (0..a.col.len()).map(|j| a.col[j].min(b.col[j])).collect(),
    }
}

/// MatMul: the MatFast expectation under independence, with the pinned
/// f64 operation order of the documented contract.
// Index loops are deliberate: the re-derivation must not share code
// *shape* with dmac-stats' iterator implementation, only its arithmetic.
#[allow(clippy::needless_range_loop)]
fn rederive_matmul(a: &NnzProfile, b: &NnzProfile, block: usize) -> NnzProfile {
    let (m, n, p) = (a.rows, a.cols, b.cols);
    let mut row = vec![0.0f64; strips(m, block)];
    let mut col = vec![0.0f64; strips(p, block)];
    let mut total = 0.0f64;
    for i in 0..row.len() {
        let r_i = strip(m, block, i);
        let d_a = if r_i * n > 0 {
            a.row[i] / (r_i * n) as f64
        } else {
            0.0
        };
        for j in 0..col.len() {
            let c_j = strip(p, block, j);
            let d_b = if n * c_j > 0 {
                b.col[j] / (n * c_j) as f64
            } else {
                0.0
            };
            let d = (d_a * d_b).clamp(0.0, 1.0);
            let p_ij = 1.0 - (1.0 - d).powi(n as i32);
            let e_ij = (r_i * c_j) as f64 * p_ij;
            row[i] += e_ij;
            col[j] += e_ij;
            total += e_ij;
        }
    }
    NnzProfile {
        rows: m,
        cols: p,
        nnz: (total.ceil() as u64).min(m as u64 * p as u64),
        row,
        col,
    }
}

/// The densifying-unary condition (a non-zero constant `add_scalar`).
fn rederive_densifies(op: &UnaryOp) -> bool {
    match op {
        UnaryOp::AddScalar(ScalarExpr::Const(v)) => *v != 0.0,
        UnaryOp::AddScalar(_) => true,
        UnaryOp::Scale(_) => false,
    }
}

/// V14: every claimed profile has the declared shape, strip vectors of
/// the right length at the planning blocking, finite non-negative strip
/// masses, and respects the hard cap `nnz ≤ rows·cols`.
fn check_profile_shapes(
    program: &Program,
    profiles: &[SparsityProfile],
    block: usize,
) -> Result<(), String> {
    if profiles.len() != program.matrices().len() {
        return Err(format!(
            "V14: {} profiles for {} declared matrices",
            profiles.len(),
            program.matrices().len()
        ));
    }
    for (decl, p) in program.matrices().iter().zip(profiles) {
        let m = decl.id;
        if (p.rows, p.cols) != (decl.stats.rows, decl.stats.cols) {
            return Err(format!(
                "V14: profile of matrix {m} is {}x{}, declared {}x{}",
                p.rows, p.cols, decl.stats.rows, decl.stats.cols
            ));
        }
        if p.block != block {
            return Err(format!(
                "V14: profile of matrix {m} uses blocking {} instead of {block}",
                p.block
            ));
        }
        if p.row_nnz.len() != strips(p.rows, block) || p.col_nnz.len() != strips(p.cols, block) {
            return Err(format!(
                "V14: profile of matrix {m} has {}x{} strip vectors, expected {}x{}",
                p.row_nnz.len(),
                p.col_nnz.len(),
                strips(p.rows, block),
                strips(p.cols, block)
            ));
        }
        if p.nnz > p.rows as u64 * p.cols as u64 {
            return Err(format!(
                "V14: profile of matrix {m} claims {} non-zeros in a {}x{} matrix",
                p.nnz, p.rows, p.cols
            ));
        }
        if let Some(v) = p
            .row_nnz
            .iter()
            .chain(&p.col_nnz)
            .find(|v| !v.is_finite() || **v < 0.0)
        {
            return Err(format!(
                "V14: profile of matrix {m} has an invalid strip mass {v}"
            ));
        }
    }
    Ok(())
}

/// Re-derive every operator-produced (and `Random`) profile from the
/// estimator contract. `Load` sources are data-dependent measurements
/// the verifier cannot reproduce, so they are taken as given — V14
/// bounds them — and everything downstream is recomputed from them.
fn rederive_profiles(
    program: &Program,
    claimed: &[SparsityProfile],
    block: usize,
) -> Result<Vec<NnzProfile>, String> {
    let mut out: Vec<NnzProfile> = Vec::with_capacity(claimed.len());
    for decl in program.matrices() {
        let p = match decl.origin {
            MatrixOrigin::Load => {
                let c = &claimed[decl.id as usize];
                NnzProfile {
                    rows: c.rows,
                    cols: c.cols,
                    nnz: c.nnz,
                    row: c.row_nnz.clone(),
                    col: c.col_nnz.clone(),
                }
            }
            MatrixOrigin::Random => NnzProfile::dense(decl.stats.rows, decl.stats.cols, block),
            MatrixOrigin::Op(i) => {
                let op = program
                    .ops()
                    .get(i)
                    .ok_or_else(|| format!("V15: matrix {} from unknown operator {i}", decl.id))?;
                let arg = |r: &dmac_lang::MatrixRef| -> NnzProfile {
                    let p = &out[r.id as usize];
                    if r.transposed {
                        p.flipped()
                    } else {
                        p.clone()
                    }
                };
                match &op.kind {
                    OpKind::Binary { op, lhs, rhs } => {
                        let (a, b) = (arg(lhs), arg(rhs));
                        match op {
                            BinOp::MatMul => rederive_matmul(&a, &b, block),
                            BinOp::Add | BinOp::Sub => rederive_sum(&a, &b, block),
                            BinOp::CellMul | BinOp::CellDiv => rederive_min(&a, &b),
                        }
                    }
                    OpKind::Unary { op, input } => {
                        let a = arg(input);
                        if rederive_densifies(op) {
                            NnzProfile::dense(a.rows, a.cols, block)
                        } else {
                            a
                        }
                    }
                    OpKind::Reduce { .. } => NnzProfile {
                        rows: decl.stats.rows,
                        cols: decl.stats.cols,
                        nnz: 0,
                        row: vec![0.0; strips(decl.stats.rows, block)],
                        col: vec![0.0; strips(decl.stats.cols, block)],
                    },
                }
            }
        };
        out.push(p);
    }
    Ok(out)
}

/// V15: the planner's propagated profiles agree with the re-derivation
/// byte-exactly (`f64::to_bits` on every strip mass).
fn check_profile_agreement(
    rederived: &[NnzProfile],
    claimed: &[SparsityProfile],
) -> Result<(), String> {
    for (m, (r, c)) in rederived.iter().zip(claimed).enumerate() {
        if r.nnz != c.nnz {
            return Err(format!(
                "V15: matrix {m} profile claims nnz {} but re-derivation gives {}",
                c.nnz, r.nnz
            ));
        }
        let bits_eq = |x: &[f64], y: &[f64]| {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
        };
        if !bits_eq(&r.row, &c.row_nnz) || !bits_eq(&r.col, &c.col_nnz) {
            return Err(format!(
                "V15: matrix {m} strip vectors diverge from the re-derived estimator"
            ));
        }
    }
    Ok(())
}

/// Verify every invariant of a planner-produced [`Planned`]. Returns a
/// summary on success and a message naming the violated invariant (`Vxx`)
/// and step on failure.
pub fn verify_planned(
    program: &Program,
    planned: &Planned,
    cfg: &PlannerConfig,
    workers: usize,
) -> Result<VerifySummary, String> {
    let block = cfg.fusion_block.max(1);
    check_profile_shapes(program, &planned.profiles, block)?;
    let profiles = rederive_profiles(program, &planned.profiles, block)?;
    check_profile_agreement(&profiles, &planned.profiles)?;
    let v = Verifier {
        program,
        plan: &planned.plan,
        cfg,
        workers: workers as u64,
        profiles,
    };
    let summary = v.run(planned.estimated_comm)?;
    crate::liveness::check_liveness(program, planned, cfg)?;
    Ok(summary)
}

struct Verifier<'a> {
    program: &'a Program,
    plan: &'a Plan,
    cfg: &'a PlannerConfig,
    workers: u64,
    /// The re-derived estimator profiles (already proven byte-equal to
    /// the planner's own, V15).
    profiles: Vec<NnzProfile>,
}

impl<'a> Verifier<'a> {
    /// `|A|` — bytes of a program matrix, recomputed along a path
    /// deliberately separate from `dmac_core::cost`: 8 bytes per
    /// re-derived predicted non-zero (transposition invariant).
    fn size(&self, m: MatrixId) -> Result<u64, String> {
        self.program
            .decl(m)
            .map_err(|e| format!("V01: plan references unknown matrix {m}: {e}"))?;
        let p = self
            .profiles
            .get(m as usize)
            .ok_or_else(|| format!("V14: no profile for matrix {m}"))?;
        Ok(8 * p.nnz)
    }

    fn run(&self, estimated_comm: u64) -> Result<VerifySummary, String> {
        self.check_nodes()?;
        self.check_definitions()?;
        let recomputed = self.check_steps()?;
        self.check_op_coverage()?;
        self.check_outputs()?;
        let stages = self.check_stages()?;
        self.check_step_nnz()?;
        self.check_dense_anchor()?;

        // V02: totals. The per-step predictions must tile the planner's
        // own estimate, and our independent recomputation must agree with
        // both, byte for byte.
        let predicted_total = self.plan.predicted_total();
        if predicted_total != estimated_comm {
            return Err(format!(
                "V02: per-step predictions sum to {predicted_total} but the planner \
                 estimated {estimated_comm}"
            ));
        }
        if recomputed != estimated_comm {
            return Err(format!(
                "V02: independent cost recomputation gives {recomputed} bytes but the \
                 planner estimated {estimated_comm}"
            ));
        }

        Ok(VerifySummary {
            steps: self.plan.steps.len(),
            comm_steps: self.plan.steps.iter().filter(|s| s.is_comm()).count(),
            recomputed_comm: recomputed,
            stages,
        })
    }

    /// V03: no flexible nodes survive finalisation; every node's matrix
    /// exists.
    fn check_nodes(&self) -> Result<(), String> {
        for (i, n) in self.plan.nodes.iter().enumerate() {
            if n.flexible {
                return Err(format!(
                    "V03: node {i} ({}) is still flexible after finalisation",
                    self.plan.node_label(self.program, i)
                ));
            }
            self.size(n.matrix)?;
        }
        Ok(())
    }

    /// V04: every node is defined exactly once (as a source or as exactly
    /// one step's output) and every step reads only already-defined nodes.
    fn check_definitions(&self) -> Result<(), String> {
        let mut defined = vec![false; self.plan.nodes.len()];
        for &(n, m) in &self.plan.sources {
            let node = self
                .plan
                .nodes
                .get(n)
                .ok_or_else(|| format!("V04: source entry references missing node {n}"))?;
            if node.matrix != m {
                return Err(format!(
                    "V04: source entry says node {n} holds matrix {m} but the node \
                     holds matrix {}",
                    node.matrix
                ));
            }
            defined[n] = true;
        }
        // A fused product's output exists in its step's program only: no
        // step defines it and none reads it.
        let mut folded: HashMap<usize, usize> = HashMap::new();
        for (i, step) in self.plan.steps.iter().enumerate() {
            let PlanStep::Fused { products, .. } = step else {
                continue;
            };
            for p in products {
                if let Some(f) = folded.insert(p.out, i) {
                    return Err(format!(
                        "V10: node {} is folded as a product by steps {f} and {i}",
                        p.out
                    ));
                }
            }
        }
        for (i, step) in self.plan.steps.iter().enumerate() {
            for r in step.in_nodes() {
                if let Some(f) = folded.get(&r) {
                    return Err(format!(
                        "V10: step {i} reads node {r}, which step {f} folds as a product: \
                         a product has one reader, its fused step's program"
                    ));
                }
                if !defined.get(r).copied().unwrap_or(false) {
                    return Err(format!("V04: step {i} reads node {r} before it is defined"));
                }
            }
            if let Some(out) = step.out_node() {
                if out >= self.plan.nodes.len() {
                    return Err(format!("V04: step {i} defines missing node {out}"));
                }
                if let Some(f) = folded.get(&out) {
                    return Err(format!(
                        "V10: step {i} defines node {out}, which step {f} folds as a product"
                    ));
                }
                if defined[out] {
                    return Err(format!("V04: step {i} redefines node {out}"));
                }
                defined[out] = true;
            }
        }
        Ok(())
    }

    /// Per-step structural checks + independent cost recomputation.
    /// Returns the recomputed total.
    fn check_steps(&self) -> Result<u64, String> {
        let mut total = 0u64;
        for (i, step) in self.plan.steps.iter().enumerate() {
            let expect = match step {
                PlanStep::Partition { src, out, .. }
                | PlanStep::Broadcast { src, out, .. }
                | PlanStep::Extract { src, out, .. } => self.extended_bytes(i, step, *src, *out)?,
                PlanStep::Compute {
                    op,
                    strategy,
                    inputs,
                    out,
                    out_scalar,
                    ..
                } => self.check_compute(i, *op, *strategy, inputs, *out, *out_scalar)?,
                PlanStep::Fused {
                    ops,
                    prog,
                    inputs,
                    products,
                    out,
                    ..
                } => self.check_fused(i, ops, prog, (inputs, products), *out)?,
            };
            let predicted = self.plan.predicted_bytes(i);
            if predicted != expect {
                return Err(format!(
                    "V05: step {i} predicted {predicted} bytes, independent recomputation \
                     gives {expect}"
                ));
            }
            total += expect;
        }
        Ok(total)
    }

    /// The §4.1 event bytes of an extended-operator step, from its endpoint
    /// nodes (an extract 0, a partition `|A|`, a broadcast `N·|A|`; a
    /// transposed read moves its source), its structure checked.
    fn extended_bytes(
        &self,
        i: usize,
        step: &PlanStep,
        src: usize,
        out: usize,
    ) -> Result<u64, String> {
        let s = &self.plan.nodes[src];
        let o = &self.plan.nodes[out];
        if s.matrix != o.matrix {
            return Err(format!(
                "V06: step {i} relates different matrices {} and {}",
                s.matrix, o.matrix
            ));
        }
        let size = self.size(s.matrix)?;
        let bytes = match step {
            PlanStep::Extract { .. } => {
                if s.scheme != PartitionScheme::Broadcast || !o.scheme.is_rc() {
                    return Err(format!(
                        "V06: step {i} extract must filter a broadcast copy down to \
                         Row/Col ({} -> {})",
                        self.plan.node_label(self.program, src),
                        self.plan.node_label(self.program, out)
                    ));
                }
                0
            }
            PlanStep::Partition { .. } => {
                if !o.scheme.is_rc() {
                    return Err(format!(
                        "V06: step {i} partition targets {}, not Row/Col",
                        o.scheme
                    ));
                }
                size
            }
            PlanStep::Broadcast { .. } => {
                if o.scheme != PartitionScheme::Broadcast {
                    return Err(format!(
                        "V06: step {i} broadcast targets {}, not Broadcast",
                        o.scheme
                    ));
                }
                self.workers * size
            }
            _ => unreachable!("extended_bytes is only called on extended operators"),
        };
        Ok(bytes)
    }

    /// Check a compute step against the candidate table; returns its
    /// independently recomputed output-event bytes.
    #[allow(clippy::too_many_arguments)]
    fn check_compute(
        &self,
        i: usize,
        op_idx: usize,
        strategy: Strategy,
        inputs: &[Operand],
        out: Option<usize>,
        out_scalar: Option<dmac_lang::ScalarId>,
    ) -> Result<u64, String> {
        let op = self
            .program
            .ops()
            .get(op_idx)
            .ok_or_else(|| format!("V07: step {i} computes unknown operator {op_idx}"))?;
        let cands = candidates(&op.kind);
        let cand = cands
            .iter()
            .find(|c| c.strategy == strategy)
            .ok_or_else(|| {
                format!(
                    "V07: step {i} uses strategy {} which is not a candidate for \
                     operator {op_idx}",
                    strategy.name()
                )
            })?;

        // V08: input events — arity, operand identity, handedness (a view
        // reads the transpose: its bit is the handedness the operator
        // reads), and scheme compatibility, as the operand reads, with the
        // strategy's requirements.
        let refs = op.kind.inputs();
        if refs.len() != inputs.len() || cand.inputs.len() != inputs.len() {
            return Err(format!(
                "V08: step {i} has {} input nodes for a {}-operand operator",
                inputs.len(),
                refs.len()
            ));
        }
        for (k, (r, (&o, req))) in refs.iter().zip(inputs.iter().zip(&cand.inputs)).enumerate() {
            let node =
                self.plan.nodes.get(o.node).ok_or_else(|| {
                    format!("V04: step {i} input {k} reads missing node {}", o.node)
                })?;
            if node.matrix != r.id {
                return Err(format!(
                    "V08: step {i} input {k} holds matrix {} but the operator reads {}",
                    node.matrix, r.id
                ));
            }
            if o.transposed != r.transposed {
                return Err(format!(
                    "V08: step {i} input {k} ({}) has the wrong handedness: the operator \
                     reads it {}transposed",
                    self.plan.operand_label(self.program, o),
                    if r.transposed { "" } else { "un" }
                ));
            }
            if let Some(req) = req {
                if read_scheme(self.plan, o) != *req {
                    return Err(format!(
                        "V08: step {i} input {k} ({}) does not satisfy the {} \
                         requirement of {}",
                        self.plan.operand_label(self.program, o),
                        req,
                        strategy.name()
                    ));
                }
            }
        }

        // V09: output event.
        if out_scalar != op.out_scalar {
            return Err(format!(
                "V09: step {i} scalar binding {:?} does not match operator {op_idx}'s {:?}",
                out_scalar, op.out_scalar
            ));
        }
        match (&cand.output, out) {
            (OutScheme::Scalar, None) => {}
            (OutScheme::Scalar, Some(_)) => {
                return Err(format!("V09: step {i} reduction defines a matrix node"));
            }
            (_, None) => {
                if op.out_matrix.is_some() {
                    return Err(format!("V09: step {i} drops its matrix output"));
                }
            }
            (shape, Some(n)) => {
                let node = &self.plan.nodes[n];
                let m = op.out_matrix.ok_or_else(|| {
                    format!("V09: step {i} defines a node for a matrix-less operator")
                })?;
                if node.matrix != m {
                    return Err(format!(
                        "V09: step {i} output node ({}) must hold matrix {m}",
                        self.plan.node_label(self.program, n)
                    ));
                }
                let ok = match shape {
                    OutScheme::Fixed(s) => {
                        if self.cfg.exploit_dependencies {
                            node.scheme == *s
                        } else {
                            // SystemML-S writes results back to the
                            // hash-partitioned cache.
                            node.scheme == PartitionScheme::Hash
                        }
                    }
                    // A CPMM output is pinned (by a consumer or by
                    // finalisation) to one of its two free schemes.
                    OutScheme::FlexibleRc => {
                        if self.cfg.exploit_dependencies {
                            node.scheme.is_rc()
                        } else {
                            node.scheme == PartitionScheme::Hash
                        }
                    }
                    OutScheme::SameAsInput => node.scheme == read_scheme(self.plan, inputs[0]),
                    OutScheme::Scalar => unreachable!("handled above"),
                };
                if !ok {
                    return Err(format!(
                        "V09: step {i} output ({}) has an illegal scheme for {}",
                        self.plan.node_label(self.program, n),
                        strategy.name()
                    ));
                }
            }
        }

        // §4.1: only CPMM's output event communicates, at N·|AB|.
        match strategy {
            Strategy::Cpmm => {
                let m = op
                    .out_matrix
                    .ok_or_else(|| format!("V09: step {i} CPMM without a matrix output"))?;
                Ok(self.workers * self.size(m)?)
            }
            _ => Ok(0),
        }
    }

    /// V10: fused steps are local, scheme-aligned, and replay a
    /// well-formed post-order program whose members are all cell-wise —
    /// save its products, each a multiplication it folds per output tile,
    /// which must be local: RMM1 or RMM2 (never CPMM, whose output is
    /// aggregated across workers), its operands placed as its strategy
    /// requires, its output in the step's scheme, not a program output,
    /// and read by the program exactly once (by no step at all: V04 checks
    /// that). Returns the step's bytes: 0, Table 2's price of an RMM's
    /// output event as of every cell-wise one.
    fn check_fused(
        &self,
        i: usize,
        ops: &[usize],
        prog: &[FusedOp<ScalarExpr>],
        (inputs, products): (&[Operand], &[Product]),
        out: usize,
    ) -> Result<u64, String> {
        if ops.len() < 2 {
            return Err(format!("V10: step {i} fuses fewer than two operators"));
        }
        let out_scheme = self.plan.nodes[out].scheme;
        for &o in inputs {
            if read_scheme(self.plan, o) != out_scheme {
                return Err(format!(
                    "V10: step {i} fused leaf ({}) is not aligned with its output ({})",
                    self.plan.operand_label(self.program, o),
                    self.plan.node_label(self.program, out)
                ));
            }
        }
        let mut bytes = 0;
        for (j, p) in products.iter().enumerate() {
            let leaf = inputs.len() + j;
            let node = (self.plan.nodes.get(p.out))
                .ok_or_else(|| format!("V10: step {i} product {j} names missing node {}", p.out))?;
            if !ops.contains(&p.op) {
                return Err(format!(
                    "V10: step {i} folds operator {}, which it does not list as fused",
                    p.op
                ));
            }
            if !matches!(p.strategy, Strategy::Rmm1 | Strategy::Rmm2) {
                return Err(format!(
                    "V10: step {i} fuses operator {} by {}, which is no local product",
                    p.op,
                    p.strategy.name()
                ));
            }
            if node.scheme != out_scheme {
                return Err(format!(
                    "V10: step {i} product {} is not in its chain's scheme ({})",
                    self.plan.node_label(self.program, p.out),
                    self.plan.node_label(self.program, out)
                ));
            }
            if self.plan.outputs.iter().any(|o| o.0 == p.out) {
                return Err(format!(
                    "V10: step {i} folds {}, a program output",
                    self.plan.node_label(self.program, p.out)
                ));
            }
            let reads = prog
                .iter()
                .filter(|f| matches!(f, FusedOp::Leaf(k) if *k == leaf))
                .count();
            if reads != 1 {
                return Err(format!(
                    "V10: step {i} reads product {} {reads} times, not once",
                    self.plan.node_label(self.program, p.out)
                ));
            }
            bytes += self.check_compute(i, p.op, p.strategy, &p.inputs, Some(p.out), None)?;
        }
        let mut cellwise = 0usize;
        for &o in ops {
            let op = self
                .program
                .ops()
                .get(o)
                .ok_or_else(|| format!("V10: step {i} fuses unknown operator {o}"))?;
            let is_cellwise = match &op.kind {
                OpKind::Binary { op: b, .. } => *b != BinOp::MatMul,
                OpKind::Unary { .. } => true,
                OpKind::Reduce { .. } => false,
            };
            if is_cellwise {
                cellwise += 1;
            } else if !products.iter().any(|p| p.op == o) {
                return Err(format!(
                    "V10: step {i} fuses operator {o}, which is not cell-wise"
                ));
            }
        }
        // The last fused member produces the step's output.
        let root = *ops.last().expect("checked non-empty");
        if self.program.ops()[root].out_matrix != Some(self.plan.nodes[out].matrix)
            || products.iter().any(|p| p.op == root)
        {
            return Err(format!(
                "V10: step {i} output node holds a matrix no fused member produces"
            ));
        }
        // Replay the post-order program symbolically: every Leaf index in
        // range, stack never underflows, exactly one value remains, and
        // the instruction count matches the cell-wise member count.
        let mut depth = 0usize;
        let mut instr_ops = 0usize;
        for instr in prog {
            match instr {
                FusedOp::Leaf(k) => {
                    if *k >= inputs.len() + products.len() {
                        return Err(format!("V10: step {i} leaf {k} out of range"));
                    }
                    depth += 1;
                }
                FusedOp::Add | FusedOp::Sub | FusedOp::CellMul | FusedOp::CellDiv => {
                    if depth < 2 {
                        return Err(format!("V10: step {i} fused program underflows"));
                    }
                    depth -= 1;
                    instr_ops += 1;
                }
                FusedOp::Scale(_) | FusedOp::AddScalar(_) => {
                    if depth < 1 {
                        return Err(format!("V10: step {i} fused program underflows"));
                    }
                    instr_ops += 1;
                }
            }
        }
        if depth != 1 {
            return Err(format!(
                "V10: step {i} fused program leaves {depth} values on the stack"
            ));
        }
        if instr_ops != cellwise {
            return Err(format!(
                "V10: step {i} fused program has {instr_ops} operator instructions for \
                 {cellwise} members"
            ));
        }
        Ok(bytes)
    }

    /// V11: every program operator is planned exactly once, across plain
    /// compute steps and fused groups.
    fn check_op_coverage(&self) -> Result<(), String> {
        let mut seen: HashMap<usize, usize> = HashMap::new();
        for step in &self.plan.steps {
            match step {
                PlanStep::Compute { op, .. } => *seen.entry(*op).or_insert(0) += 1,
                PlanStep::Fused { ops, .. } => {
                    for &o in ops {
                        *seen.entry(o).or_insert(0) += 1;
                    }
                }
                _ => {}
            }
        }
        for idx in 0..self.program.ops().len() {
            match seen.get(&idx).copied().unwrap_or(0) {
                1 => {}
                0 => return Err(format!("V11: operator {idx} was never planned")),
                n => return Err(format!("V11: operator {idx} planned {n} times")),
            }
        }
        if let Some(&idx) = seen.keys().find(|&&idx| idx >= self.program.ops().len()) {
            return Err(format!("V11: plan computes nonexistent operator {idx}"));
        }
        Ok(())
    }

    /// V12: every program output is bound to a node holding that matrix
    /// (one the program reads transposed is transposed at the boundary).
    fn check_outputs(&self) -> Result<(), String> {
        for (r, name) in self.program.outputs() {
            let found = self.plan.outputs.iter().any(|(n, m, bound_name)| {
                (self.plan.nodes.get(*n)).is_some_and(|node| *m == r.id && node.matrix == r.id)
                    && bound_name == name
            });
            if !found {
                return Err(format!(
                    "V12: program output (matrix {}, transposed {}) is not bound",
                    r.id, r.transposed
                ));
            }
        }
        Ok(())
    }

    /// V13: the §5.2 stage invariant — communication steps are exactly the
    /// stage boundaries.
    fn check_stages(&self) -> Result<usize, String> {
        let stages = stage::schedule(self.plan);
        stage::validate(self.plan, &stages)
            .map_err(|i| format!("V13: stage invariant violated at step {i}"))?;
        Ok(stages.count)
    }

    /// V16: the plan's per-step predicted nnz is exactly the re-derived
    /// profile nnz of each step's output matrix (0 for steps without a
    /// matrix output).
    fn check_step_nnz(&self) -> Result<(), String> {
        if self.plan.predicted_nnz.len() != self.plan.steps.len() {
            return Err(format!(
                "V16: {} predicted-nnz entries for {} steps",
                self.plan.predicted_nnz.len(),
                self.plan.steps.len()
            ));
        }
        for (i, step) in self.plan.steps.iter().enumerate() {
            let expect = match step.out_node() {
                Some(n) => {
                    let m = self.plan.nodes[n].matrix;
                    self.profiles
                        .get(m as usize)
                        .ok_or_else(|| format!("V16: step {i} outputs unprofiled matrix {m}"))?
                        .nnz
                }
                None => 0,
            };
            let claimed = self.plan.predicted_nnz[i];
            if claimed != expect {
                return Err(format!(
                    "V16: step {i} claims predicted nnz {claimed}, profile says {expect}"
                ));
            }
        }
        Ok(())
    }

    /// V17: the dense anchor — when every source profile is fully dense,
    /// the estimator must reproduce the worst-case static byte sizes
    /// exactly for *every* matrix (the `density = 1.0` special case of
    /// Table 2).
    fn check_dense_anchor(&self) -> Result<(), String> {
        let all_dense_sources = self.program.matrices().iter().all(|d| {
            matches!(d.origin, MatrixOrigin::Op(_)) || {
                let p = &self.profiles[d.id as usize];
                p.nnz == d.stats.rows as u64 * d.stats.cols as u64
            }
        });
        if !all_dense_sources {
            return Ok(());
        }
        for d in self.program.matrices() {
            // Scalar-producing reductions have no matrix profile mass.
            if let MatrixOrigin::Op(i) = d.origin {
                if matches!(self.program.ops()[i].kind, OpKind::Reduce { .. }) {
                    continue;
                }
            }
            let s = d.stats;
            let static_bytes = (s.rows as f64 * s.cols as f64 * s.sparsity * 8.0).ceil() as u64;
            let nnz_bytes = 8 * self.profiles[d.id as usize].nnz;
            if nnz_bytes != static_bytes {
                return Err(format!(
                    "V17: dense sources, but matrix {} prices {nnz_bytes} nnz-bytes \
                     against {static_bytes} static bytes",
                    d.id
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmac_core::planner::{plan_program, plan_with_forced_profiled};
    use std::collections::HashMap as Map;

    fn gnmf_h() -> Program {
        let mut p = Program::new();
        let v = p.load("V", 1000, 800, 0.01);
        let w = p.random("W", 1000, 20);
        let h = p.random("H", 20, 800);
        let wt_v = p.matmul(w.t(), v).unwrap();
        let wt_w = p.matmul(w.t(), w).unwrap();
        let wt_w_h = p.matmul(wt_w, h).unwrap();
        let num = p.cell_mul(h, wt_v).unwrap();
        let h_new = p.cell_div(num, wt_w_h).unwrap();
        p.store(h_new, "H");
        p
    }

    #[test]
    fn gnmf_verifies_under_all_configs() {
        let p = gnmf_h();
        for cfg in [PlannerConfig::default(), PlannerConfig::systemml_s()] {
            let planned = plan_program(&p, &cfg, 4, &Map::new()).unwrap();
            let s = verify_planned(&p, &planned, &cfg, 4)
                .unwrap_or_else(|m| panic!("{m}\n{}", planned.plan.explain(&p)));
            assert_eq!(s.steps, planned.plan.steps.len());
            assert_eq!(s.recomputed_comm, planned.estimated_comm);
        }
    }

    #[test]
    fn systemml_baseline_fused_chain_verifies() {
        // The baseline shares DMac's fused local engine: a 36-block chain
        // with no repartition between members (`scale → + scalar`; unaries
        // read in place) fuses under SystemML-S, and V10 accepts it.
        let mut p = Program::new();
        let a = p.load("A", 1536, 1536, 1.0);
        let b = p.load("B", 1536, 1536, 1.0);
        let sum = p.add(a, b).unwrap();
        let half = p.scale_const(sum, 0.5).unwrap();
        let out = p.add_scalar(half, ScalarExpr::c(1.0)).unwrap();
        p.output(out);
        let cfg = PlannerConfig::systemml_s();
        let planned = plan_program(&p, &cfg, 4, &Map::new()).unwrap();
        assert!(planned
            .plan
            .steps
            .iter()
            .any(|s| matches!(s, PlanStep::Fused { .. })));
        verify_planned(&p, &planned, &cfg, 4)
            .unwrap_or_else(|m| panic!("{m}\n{}", planned.plan.explain(&p)));
    }

    #[test]
    fn forced_strategies_verify() {
        // Force each matmul strategy for the first operator; the verifier
        // must agree with whatever plan comes out.
        let p = gnmf_h();
        let cfg = PlannerConfig::default();
        for choice in 0..3 {
            let mut forced = Map::new();
            forced.insert(0, choice);
            let planned =
                plan_with_forced_profiled(&p, &cfg, 4, &Map::new(), &Map::new(), Some(&forced))
                    .unwrap();
            verify_planned(&p, &planned, &cfg, 4)
                .unwrap_or_else(|m| panic!("choice {choice}: {m}\n{}", planned.plan.explain(&p)));
        }
    }

    /// GNMF's W-update at a grid over the fusion gate: one fused step
    /// folds `V Hᵀ` and `W·(H Hᵀ)`, both RMM2, and its planned program
    /// verifies. Returns the plan and the fused step's index.
    fn folding() -> (Program, Planned, PlannerConfig, usize) {
        let mut p = Program::new();
        let v = p.load("V", 1024, 512, 0.05);
        let w = p.random("W", 1024, 32);
        let h = p.random("H", 32, 512);
        let vht = p.matmul(v, h.t()).unwrap();
        let hht = p.matmul(h, h.t()).unwrap();
        let whht = p.matmul(w, hht).unwrap();
        let num = p.cell_mul(w, vht).unwrap();
        let w_new = p.cell_div(num, whht).unwrap();
        p.store(w_new, "W");
        let cfg = PlannerConfig {
            fusion_block: 32,
            ..Default::default()
        };
        let planned = plan_program(&p, &cfg, 4, &Map::new()).unwrap();
        verify_planned(&p, &planned, &cfg, 4)
            .unwrap_or_else(|m| panic!("{m}\n{}", planned.plan.explain(&p)));
        let at = (planned.plan.steps.iter())
            .position(|s| matches!(s, PlanStep::Fused { products, .. } if products.len() == 2))
            .unwrap_or_else(|| panic!("no folded product\n{}", planned.plan.explain(&p)));
        (p, planned, cfg, at)
    }

    fn products_at(planned: &mut Planned, at: usize) -> &mut Vec<Product> {
        match &mut planned.plan.steps[at] {
            PlanStep::Fused { products, .. } => products,
            _ => unreachable!("a fused step"),
        }
    }

    #[test]
    fn a_fused_cpmm_is_caught() {
        let (p, mut planned, cfg, at) = folding();
        products_at(&mut planned, at)[0].strategy = Strategy::Cpmm;
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        assert!(err.contains("V10") && err.contains("CPMM"), "{err}");
    }

    #[test]
    fn a_product_read_twice_is_caught() {
        let (p, mut planned, cfg, at) = folding();
        // A later step reads the product's output, which no step defines.
        let folded = products_at(&mut planned, at)[0].out;
        let node = planned.plan.nodes[folded].clone();
        let out = (planned.plan).add_node(node.matrix, PartitionScheme::Broadcast, false);
        let phase = planned.plan.steps[at].phase();
        let reader = PlanStep::Broadcast {
            src: folded,
            out,
            phase,
        };
        planned.plan.push_step(reader, 0);
        planned.plan.releases.push(Default::default());
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        assert!(err.contains("V10") && err.contains("one reader"), "{err}");
        // Or the program reads its leaf twice.
        let (p, mut planned, cfg, at) = folding();
        let PlanStep::Fused { inputs, prog, .. } = &mut planned.plan.steps[at] else {
            unreachable!("a fused step");
        };
        let leaf = FusedOp::Leaf(inputs.len());
        prog.extend([leaf, FusedOp::CellMul]);
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        assert!(err.contains("V10") && err.contains("2 times"), "{err}");
    }

    #[test]
    fn a_product_outside_the_chain_scheme_is_caught() {
        let (p, mut planned, cfg, at) = folding();
        let folded = products_at(&mut planned, at)[1].out;
        let scheme = &mut planned.plan.nodes[folded].scheme;
        *scheme = scheme.flip();
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        assert!(err.contains("V10") && err.contains("scheme"), "{err}");
    }

    #[test]
    fn a_consumed_product_operand_is_caught() {
        // `W` is a plain leaf of the W-update and an operand of `W·HHᵀ`:
        // its tiles feed every output tile of its row, so the fused step
        // frees it after it has run and may not consume it.
        let (p, mut planned, cfg, at) = folding();
        let PlanStep::Fused {
            inputs, products, ..
        } = &planned.plan.steps[at]
        else {
            unreachable!("a fused step");
        };
        let w = (inputs.iter().map(|o| o.node))
            .find(|&n| {
                products
                    .iter()
                    .any(|q| q.inputs.iter().any(|o| o.node == n))
            })
            .expect("a leaf that is also an operand");
        let releases = &mut planned.plan.releases[at];
        assert!(releases.frees.contains(&w));
        releases.frees.retain(|&n| n != w);
        releases.consumes.push(w);
        let err = crate::liveness::check_liveness(&p, &planned, &cfg).unwrap_err();
        assert!(err.contains("V19") && err.contains("tile-wise"), "{err}");
    }

    /// GNMF's H-update, planned, with the first step that reads a view
    /// and that view's operand index.
    fn viewing() -> (Program, Planned, PlannerConfig, usize, usize) {
        let p = gnmf_h();
        let cfg = PlannerConfig::default();
        let planned = plan_program(&p, &cfg, 4, &Map::new()).unwrap();
        verify_planned(&p, &planned, &cfg, 4).unwrap();
        let (at, k) = (planned.plan.steps.iter().enumerate())
            .find_map(|(i, s)| match s {
                PlanStep::Compute { inputs, .. } => {
                    inputs.iter().position(|o| o.transposed).map(|k| (i, k))
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("no view read\n{}", planned.plan.explain(&p)));
        (p, planned, cfg, at, k)
    }

    fn view_at(planned: &mut Planned, at: usize, k: usize) -> &mut Operand {
        match &mut planned.plan.steps[at] {
            PlanStep::Compute { inputs, .. } => &mut inputs[k],
            _ => unreachable!("a compute step"),
        }
    }

    #[test]
    fn a_view_of_another_matrix_is_caught() {
        let (p, mut planned, cfg, at, k) = viewing();
        let node = view_at(&mut planned, at, k).node;
        let held = planned.plan.nodes[node].matrix;
        let other = (planned.plan.sources.iter())
            .find(|&&(_, m)| m != held)
            .map(|&(n, _)| n)
            .expect("another source");
        view_at(&mut planned, at, k).node = other;
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        assert!(err.contains("V08") && err.contains("holds matrix"), "{err}");
    }

    #[test]
    fn a_view_bit_table_2_does_not_justify_is_caught() {
        // Dropped: the operator reads the transpose, the operand not.
        let (p, mut planned, cfg, at, k) = viewing();
        view_at(&mut planned, at, k).transposed = false;
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        assert!(err.contains("V08") && err.contains("handedness"), "{err}");
        // Kept, over a copy of the matrix whose transpose is not in the
        // scheme the consumer's strategy requires.
        let (p, mut planned, cfg, at, k) = viewing();
        let node = view_at(&mut planned, at, k).node;
        let (matrix, held) = (
            planned.plan.nodes[node].matrix,
            planned.plan.nodes[node].scheme,
        );
        let scheme = match held {
            PartitionScheme::Broadcast => PartitionScheme::Row,
            rc => rc.flip(),
        };
        let copy = planned.plan.add_node(matrix, scheme, false);
        planned.plan.sources.push((copy, matrix));
        view_at(&mut planned, at, k).node = copy;
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        assert!(err.contains("V08") && err.contains("requirement"), "{err}");
    }

    #[test]
    fn a_view_read_after_its_source_is_freed_is_caught() {
        let (p, mut planned, cfg, at, k) = viewing();
        let node = view_at(&mut planned, at, k).node;
        assert!(at > 0, "{}", planned.plan.explain(&p));
        for releases in &mut planned.plan.releases {
            releases.consumes.retain(|&n| n != node);
            releases.frees.retain(|&n| n != node);
        }
        planned.plan.releases[at - 1].frees.push(node);
        let err = crate::liveness::check_liveness(&p, &planned, &cfg).unwrap_err();
        assert!(
            err.contains("V18") && err.contains("after its release"),
            "{err}"
        );
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        assert!(err.contains("V18"), "{err}");
    }

    #[test]
    fn tampered_prediction_is_caught() {
        let p = gnmf_h();
        let cfg = PlannerConfig::default();
        let mut planned = plan_program(&p, &cfg, 4, &Map::new()).unwrap();
        let comm_idx = planned
            .plan
            .steps
            .iter()
            .position(|s| s.is_comm())
            .expect("gnmf plan communicates");
        planned.plan.predicted[comm_idx] += 1;
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        assert!(err.contains("V05"), "{err}");
    }

    #[test]
    fn tampered_total_is_caught() {
        let p = gnmf_h();
        let cfg = PlannerConfig::default();
        let mut planned = plan_program(&p, &cfg, 4, &Map::new()).unwrap();
        planned.estimated_comm += 1;
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        assert!(err.contains("V02"), "{err}");
    }

    #[test]
    fn tampered_scheme_is_caught() {
        let p = gnmf_h();
        let cfg = PlannerConfig::default();
        let mut planned = plan_program(&p, &cfg, 4, &Map::new()).unwrap();
        // Flip the scheme of some compute input node: scheme compatibility
        // (V08) or a structural extended-operator check (V06) must trip.
        let victim = planned
            .plan
            .steps
            .iter()
            .find_map(|s| match s {
                PlanStep::Compute { inputs, .. } => inputs.first().map(|o| o.node),
                _ => None,
            })
            .expect("plan has computes");
        let old = planned.plan.nodes[victim].scheme;
        planned.plan.nodes[victim].scheme = old.flip();
        if old.is_rc() {
            let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
            assert!(
                err.contains("V06") || err.contains("V08"),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn dropped_operator_is_caught() {
        let p = gnmf_h();
        let cfg = PlannerConfig::default();
        let mut planned = plan_program(&p, &cfg, 4, &Map::new()).unwrap();
        let idx = planned
            .plan
            .steps
            .iter()
            .position(|s| matches!(s, PlanStep::Compute { .. }))
            .unwrap();
        planned.plan.steps.remove(idx);
        planned.plan.predicted.remove(idx);
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        // Removing a compute breaks coverage (V11) — or definition order
        // (V04) if a later step read its output.
        assert!(err.contains("V11") || err.contains("V04"), "{err}");
    }

    #[test]
    fn unbound_output_is_caught() {
        let p = gnmf_h();
        let cfg = PlannerConfig::default();
        let mut planned = plan_program(&p, &cfg, 4, &Map::new()).unwrap();
        planned.plan.outputs.clear();
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        assert!(err.contains("V12"), "{err}");
    }

    #[test]
    fn tampered_profile_cap_is_caught() {
        let p = gnmf_h();
        let cfg = PlannerConfig::default();
        let mut planned = plan_program(&p, &cfg, 4, &Map::new()).unwrap();
        // Claim more non-zeros than the matrix has cells: the hard cap
        // (V14) must trip before anything downstream prices it.
        planned.profiles[0].nnz = u64::MAX;
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        assert!(err.contains("V14"), "{err}");
    }

    #[test]
    fn tampered_profile_propagation_is_caught() {
        let p = gnmf_h();
        let cfg = PlannerConfig::default();
        let mut planned = plan_program(&p, &cfg, 4, &Map::new()).unwrap();
        // W is a random source: the verifier re-derives it as dense, so
        // shrinking the claimed profile diverges from the re-derivation.
        let w = p
            .matrices()
            .iter()
            .find(|d| matches!(d.origin, MatrixOrigin::Random))
            .unwrap()
            .id as usize;
        planned.profiles[w].nnz -= 1;
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        assert!(err.contains("V15"), "{err}");
    }

    #[test]
    fn tampered_strip_vector_is_caught() {
        let p = gnmf_h();
        let cfg = PlannerConfig::default();
        let mut planned = plan_program(&p, &cfg, 4, &Map::new()).unwrap();
        let op_out = p
            .matrices()
            .iter()
            .find(|d| matches!(d.origin, MatrixOrigin::Op(_)))
            .unwrap()
            .id as usize;
        planned.profiles[op_out].row_nnz[0] += 0.5;
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        assert!(err.contains("V15"), "{err}");
    }

    #[test]
    fn tampered_step_nnz_is_caught() {
        let p = gnmf_h();
        let cfg = PlannerConfig::default();
        let mut planned = plan_program(&p, &cfg, 4, &Map::new()).unwrap();
        let idx = planned
            .plan
            .steps
            .iter()
            .position(|s| s.out_node().is_some())
            .unwrap();
        planned.plan.predicted_nnz[idx] += 1;
        let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
        assert!(err.contains("V16"), "{err}");
    }

    #[test]
    fn dense_fixture_prices_at_the_worst_case_bytes() {
        // The dense anchor, end to end: with all-dense sources the
        // nnz-costed estimate is the paper's worst-case Table-2 figure
        // (V17 holds inside the verification). RMM2 wins: |A| + N·|B|.
        let mut p = Program::new();
        let a = p.load("A", 512, 256, 1.0);
        let b = p.load("B", 256, 128, 1.0);
        let c = p.matmul(a, b).unwrap();
        p.output(c);
        let cfg = PlannerConfig::default();
        let planned = plan_program(&p, &cfg, 4, &Map::new()).unwrap();
        verify_planned(&p, &planned, &cfg, 4).unwrap();
        let bytes = |e: dmac_lang::Expr| p.decl(e.id).unwrap().stats.est_bytes();
        assert_eq!(planned.estimated_comm, bytes(a) + 4 * bytes(b));
    }

    #[test]
    fn leftover_flexible_node_is_caught() {
        let mut p = Program::new();
        let a = p.load("A", 5000, 30, 1.0);
        let x = p.matmul(a.t(), a).unwrap();
        p.output(x);
        let cfg = PlannerConfig::default();
        let mut planned = plan_program(&p, &cfg, 4, &Map::new()).unwrap();
        if let Some(n) = planned.plan.nodes.iter().position(|n| n.scheme.is_rc()) {
            planned.plan.nodes[n].flexible = true;
            let err = verify_planned(&p, &planned, &cfg, 4).unwrap_err();
            assert!(err.contains("V03"), "{err}");
        }
    }
}
