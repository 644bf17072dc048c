//! Plan-level liveness analysis: last-use [`PlanStep::Free`] splicing and
//! the step-indexed [`MemoryCertificate`] (resident-byte upper bounds).
//!
//! The paper's premise is that dependency structure is known statically;
//! this module exploits it for *memory* the way the planner exploits it
//! for communication. A backward walk over the finished plan finds each
//! intermediate's last reader, splices an explicit `free` step right after
//! it, and then prices the live set after every step with a storage-aware
//! bound:
//!
//! * **Dense-class** nodes (matmul outputs, `+ scalar` results, anything
//!   with a dense operand) cost exactly `8·rows·cols` — the dense cap.
//! * **Sparse-class** nodes (loads declared sparse and cell-wise chains
//!   over them) cost `min(16·nnẑ, 12·cells) + colptr` where `nnẑ` is the
//!   propagated [`SparsityProfile`] count and `colptr` is the CSC
//!   column-pointer overhead of the session's blocking. The `16·nnẑ` arm covers blocks the
//!   densify threshold promotes (a promoted block has density > ½, so its
//!   `8·cells_b` dense payload is under `16·nnz_b`); the `12·cells` arm
//!   caps fully-populated CSC storage.
//!
//! Both arms are sound upper bounds on
//! [`DistMatrix::logical_bytes`](dmac_cluster::DistMatrix::logical_bytes)
//! for the class's storage, so the certificate dominates the engine's
//! observed per-step residency (invariant V21). The analyzer re-derives
//! everything here through a disjoint implementation
//! (`dmac_analyze::liveness`) and enforces V18–V21 on every plan.

use dmac_lang::{BinOp, MatrixId, MatrixOrigin, OpKind, Program, UnaryOp};
use dmac_matrix::blocking::blocks_along;
use dmac_stats::SparsityProfile;

use crate::plan::{MemoryCertificate, NodeId, Plan, PlanStep};

/// Predicted storage class of a plan node: which byte formula bounds its
/// materialised size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageClass {
    /// Bounded by the dense cap `8·rows·cols`.
    Dense,
    /// May materialise CSC-sparse; bounded by the sparse formula.
    Sparse,
}

/// Forward dataflow pass assigning a [`StorageClass`] to every plan node.
///
/// Sources: a `load` declared with sparsity < 1 is Sparse, everything
/// else (dense loads, `random`) is Dense. The extended operators
/// (partition/broadcast/transpose/extract/reference) preserve their
/// input's class. Cell-wise `+`/`-`/`*` stay Sparse only when *every*
/// operand is Sparse (the kernels produce dense tiles as soon as one
/// input is dense); `/`, `+ scalar`, matmul, and fused chains always
/// produce Dense-class outputs. `scale` preserves its input's class.
pub fn storage_classes(program: &Program, plan: &Plan) -> Vec<StorageClass> {
    let mut class = vec![StorageClass::Dense; plan.nodes.len()];
    for &(node, mid) in &plan.sources {
        let sparse = program
            .decl(mid)
            .map(|d| matches!(d.origin, MatrixOrigin::Load) && d.stats.sparsity < 1.0)
            .unwrap_or(false);
        class[node] = if sparse {
            StorageClass::Sparse
        } else {
            StorageClass::Dense
        };
    }
    for step in &plan.steps {
        let Some(out) = step.out_node() else { continue };
        class[out] = match step {
            PlanStep::Partition { src, .. }
            | PlanStep::Broadcast { src, .. }
            | PlanStep::Transpose { src, .. }
            | PlanStep::Extract { src, .. }
            | PlanStep::Reference { src, .. } => class[*src],
            PlanStep::Compute { op, inputs, .. } => match &program.ops()[*op].kind {
                OpKind::Binary { op: b, .. } => match b {
                    BinOp::Add | BinOp::Sub | BinOp::CellMul => {
                        if inputs.iter().all(|&n| class[n] == StorageClass::Sparse) {
                            StorageClass::Sparse
                        } else {
                            StorageClass::Dense
                        }
                    }
                    BinOp::CellDiv | BinOp::MatMul => StorageClass::Dense,
                },
                OpKind::Unary { op: u, .. } => match u {
                    UnaryOp::Scale(_) => class[inputs[0]],
                    UnaryOp::AddScalar(_) => StorageClass::Dense,
                },
                OpKind::Reduce { .. } => StorageClass::Dense,
            },
            // The fused interpreter materialises dense result tiles.
            PlanStep::FusedCellWise { .. } => StorageClass::Dense,
            PlanStep::Free { .. } => unreachable!("free defines no node"),
        };
    }
    class
}

/// Upper bound on the materialised bytes of one plan node.
///
/// `block` is the session's square block size (the planner's
/// `fusion_block`); the CSC column-pointer overhead depends on it.
pub fn node_price(
    program: &Program,
    plan: &Plan,
    profiles: &[SparsityProfile],
    classes: &[StorageClass],
    block: usize,
    node: NodeId,
) -> u64 {
    let n = &plan.nodes[node];
    let Ok(decl) = program.decl(n.matrix) else {
        return 0;
    };
    // The node physically holds the transpose when flagged, which flips
    // the geometry the CSC overhead depends on (payload is invariant).
    let (r, c) = if n.transposed {
        (decl.stats.cols, decl.stats.rows)
    } else {
        (decl.stats.rows, decl.stats.cols)
    };
    let cells = r as u64 * c as u64;
    match classes[node] {
        StorageClass::Dense => 8 * cells,
        StorageClass::Sparse => {
            let block = block.max(1);
            let br = blocks_along(r, block) as u64;
            let bc = blocks_along(c, block) as u64;
            // One `u32` column pointer per (block-row, column) pair plus
            // one sentinel per block: 4·(br·c + br·bc).
            let overhead = 4 * (br * c as u64 + br * bc);
            let nnz = profiles
                .get(n.matrix as usize)
                .map(|p| p.nnz)
                .unwrap_or(cells);
            (16 * nnz).min(12 * cells) + overhead
        }
    }
}

/// The node each bound (`load`-origin) source's placement is cached from:
/// the first untransposed Row/Column materialisation of its matrix, which
/// the session keeps as the input's improved placement.
pub fn cached_inputs(program: &Program, plan: &Plan) -> Vec<(MatrixId, NodeId)> {
    plan.sources
        .iter()
        .filter(|&&(_, mid)| {
            program
                .decl(mid)
                .is_ok_and(|d| matches!(d.origin, MatrixOrigin::Load))
        })
        .filter_map(|&(_, mid)| {
            let first = plan
                .nodes
                .iter()
                .position(|node| node.matrix == mid && !node.transposed && node.scheme.is_rc());
            first.map(|n| (mid, n))
        })
        .collect()
}

/// Nodes the engine must retain to the end of the run: program outputs,
/// plus the node each bound source's placement is cached from
/// ([`cached_inputs`]).
pub fn keep_set(program: &Program, plan: &Plan) -> Vec<bool> {
    let mut keep = vec![false; plan.nodes.len()];
    for (node, _, _) in &plan.outputs {
        keep[*node] = true;
    }
    for (_, n) in cached_inputs(program, plan) {
        keep[n] = true;
    }
    keep
}

/// Splice explicit [`PlanStep::Free`] steps into `plan` at each
/// non-kept node's last use (or straight after its producer if it is
/// never read). Unused *sources* are left resident — there is no step to
/// anchor their release to, and the engine seeds them before step 0.
///
/// `plan.predicted` stays aligned (frees never communicate, so their
/// prediction is 0); `predicted_nnz` must be (re-)stamped afterwards.
pub fn splice_frees(program: &Program, plan: &mut Plan) {
    let keep = keep_set(program, plan);
    let mut last_use = vec![usize::MAX; plan.nodes.len()];
    let mut producer = vec![usize::MAX; plan.nodes.len()];
    for (i, step) in plan.steps.iter().enumerate() {
        for n in step.in_nodes() {
            last_use[n] = i;
        }
        if let Some(out) = step.out_node() {
            producer[out] = i;
        }
    }
    let defined: Vec<bool> = {
        let mut d = vec![false; plan.nodes.len()];
        for &(node, _) in &plan.sources {
            d[node] = true;
        }
        for (n, &p) in producer.iter().enumerate() {
            if p != usize::MAX {
                d[n] = true;
            }
        }
        d
    };

    // Frees anchored after a step index, in ascending node order for
    // determinism.
    let mut frees_after: Vec<Vec<NodeId>> = vec![Vec::new(); plan.steps.len()];
    for n in 0..plan.nodes.len() {
        if keep[n] || !defined[n] {
            continue;
        }
        let anchor = if last_use[n] != usize::MAX {
            last_use[n]
        } else if producer[n] != usize::MAX {
            producer[n]
        } else {
            continue; // unused source: stays resident
        };
        frees_after[anchor].push(n);
    }

    let old_steps = std::mem::take(&mut plan.steps);
    let old_predicted = std::mem::take(&mut plan.predicted);
    for (i, step) in old_steps.into_iter().enumerate() {
        let phase = step.phase();
        plan.steps.push(step);
        plan.predicted
            .push(old_predicted.get(i).copied().unwrap_or(0));
        for &node in &frees_after[i] {
            plan.steps.push(PlanStep::Free { node, phase });
            plan.predicted.push(0);
        }
    }
}

/// Price the live set after every step of `plan`, producing its
/// [`MemoryCertificate`]. A node is live from its defining step (sources
/// from step 0) until its `free` step, inclusive of neither; within-step
/// transients (CPMM partials) are not counted, matching the engine's
/// post-step metering point.
pub fn certificate(
    program: &Program,
    plan: &Plan,
    profiles: &[SparsityProfile],
    block: usize,
) -> MemoryCertificate {
    let classes = storage_classes(program, plan);
    let price = |n: NodeId| node_price(program, plan, profiles, &classes, block, n);
    let mut live = vec![false; plan.nodes.len()];
    let mut resident: u64 = 0;
    for &(node, _) in &plan.sources {
        if !live[node] {
            live[node] = true;
            resident += price(node);
        }
    }
    let mut per_step = Vec::with_capacity(plan.steps.len());
    for step in &plan.steps {
        match step {
            PlanStep::Free { node, .. } => {
                if live[*node] {
                    live[*node] = false;
                    resident -= price(*node);
                }
            }
            _ => {
                if let Some(out) = step.out_node() {
                    if !live[out] {
                        live[out] = true;
                        resident += price(out);
                    }
                }
            }
        }
        per_step.push(resident);
    }
    MemoryCertificate::from_per_step(per_step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_program, PlannerConfig};
    use std::collections::HashMap;

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
    fn frees_are_spliced_and_certificate_attached() {
        let p = gnmf_h();
        let planned = plan_program(&p, &PlannerConfig::default(), 4, &HashMap::new()).unwrap();
        let frees = planned
            .plan
            .steps
            .iter()
            .filter(|s| matches!(s, PlanStep::Free { .. }))
            .count();
        assert!(frees > 0, "{}", planned.plan.explain(&p));
        assert_eq!(planned.certificate.per_step.len(), planned.plan.steps.len());
        assert_eq!(
            planned.certificate.peak,
            planned.certificate.per_step.iter().copied().max().unwrap()
        );
        assert_eq!(
            planned.certificate.per_step[planned.certificate.argmax],
            planned.certificate.peak
        );
    }

    #[test]
    fn no_step_reads_a_freed_node() {
        let p = gnmf_h();
        let planned = plan_program(&p, &PlannerConfig::default(), 4, &HashMap::new()).unwrap();
        let mut freed = vec![false; planned.plan.nodes.len()];
        for step in &planned.plan.steps {
            match step {
                PlanStep::Free { node, .. } => {
                    assert!(!freed[*node], "double free of {node}");
                    freed[*node] = true;
                }
                _ => {
                    for n in step.in_nodes() {
                        assert!(!freed[n], "step reads freed node {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn kept_nodes_are_never_freed() {
        let p = gnmf_h();
        let planned = plan_program(&p, &PlannerConfig::default(), 4, &HashMap::new()).unwrap();
        let keep = keep_set(&p, &planned.plan);
        for step in &planned.plan.steps {
            if let PlanStep::Free { node, .. } = step {
                assert!(!keep[*node]);
            }
        }
        // The output node itself is kept.
        for (n, _, _) in &planned.plan.outputs {
            assert!(keep[*n]);
        }
    }

    #[test]
    fn early_frees_lower_the_certified_peak() {
        // Reference without a knob: outputs are never freed, so marking
        // every operator result as an output is the retain-to-end plan.
        // A squaring chain keeps one dead same-sized intermediate per op.
        let mut p = Program::new();
        let mut x = p.random("X", 64, 64);
        for _ in 0..5 {
            x = p.matmul(x, x).unwrap();
        }
        p.output(x);
        let mut pinned = p.clone();
        for d in p.matrices() {
            if matches!(d.origin, MatrixOrigin::Op(_)) {
                pinned.output(dmac_lang::Expr::new(d.id));
            }
        }
        let on = plan_program(&p, &PlannerConfig::default(), 4, &HashMap::new()).unwrap();
        let off = plan_program(&pinned, &PlannerConfig::default(), 4, &HashMap::new()).unwrap();
        assert!(
            on.certificate.peak < off.certificate.peak,
            "on={} off={}",
            on.certificate.peak,
            off.certificate.peak
        );
    }

    #[test]
    fn sparse_class_flows_through_cellwise_chains() {
        let mut p = Program::new();
        let a = p.load("A", 400, 400, 0.05);
        let b = p.load("B", 400, 400, 0.05);
        let s = p.add(a, b).unwrap();
        let t = p.cell_mul(s, a).unwrap();
        let d = p.load("D", 400, 400, 1.0);
        let u = p.add(t, d).unwrap();
        p.output(u);
        // 400² at the default 256 blocking is a 4-block grid: under the
        // fusion size gate, so every chain member keeps its own node.
        let planned = plan_program(&p, &PlannerConfig::default(), 4, &HashMap::new()).unwrap();
        let classes = storage_classes(&p, &planned.plan);
        let class_of = |mid: MatrixId| {
            planned
                .plan
                .nodes
                .iter()
                .zip(&classes)
                .find(|(n, _)| n.matrix == mid)
                .map(|(_, c)| *c)
                .unwrap()
        };
        assert_eq!(class_of(s.id), StorageClass::Sparse);
        assert_eq!(class_of(t.id), StorageClass::Sparse);
        assert_eq!(class_of(d.id), StorageClass::Dense);
        assert_eq!(class_of(u.id), StorageClass::Dense);
    }
}
