//! Independent liveness / memory-certificate verification (V18–V21).
//!
//! Re-derives, along a code path deliberately separate from
//! `dmac_core::liveness`, everything the planner's liveness pass claims
//! about a plan. A value is *released* by exactly one step
//! (`Plan::releases`): the tile-wise step that last reads it, which
//! consumes it, or the step after which it is freed.
//!
//! * **V18** — no step reads a node after its release: a consumer really
//!   is the last reader of what it consumes, and a step frees nothing a
//!   later step reads.
//! * **V19** — release discipline: no value is released twice (a consumed
//!   value is not also freed), kept nodes (program outputs, cached input
//!   placements) are never released, a consumer reads what it consumes
//!   tile-wise (never as a multiplication's operand, a fused product's
//!   included) and consumes no bound source,
//!   every output is bound to a node the plan defines,
//!   and every dead intermediate is released *exactly
//!   once*, at its last reader (or its producer, if it is never read) —
//!   consumed by that reader whenever the rule above lets it consume.
//! * **V20** — the plan's [`MemoryCertificate`] dominates an independent
//!   re-derivation of the per-step resident-byte bound and is internally
//!   consistent (`peak` is the maximum of `per_step`, attained at
//!   `argmax`).
//! * **V21** ([`check_observed`]) — the engine's measured per-step
//!   resident bytes never exceed the certified bound. Hooked behind
//!   `dmac_core::verifyhook::install_run_verifier`, so every debug-build
//!   run re-checks its own trace.
//!
//! The re-derivation walks the plan *forward*, materialising per-node
//! live intervals, instead of the planner's backward last-use scan; the
//! byte formulas are restated here from the storage contract (dense cap
//! `8·r·c`; CSC payload-plus-column-pointer bound for sparse-class
//! nodes) rather than shared with `dmac_core::liveness::node_price`, and
//! which reads are tile-wise is read from the operator, not the strategy.
//! A fused step's products never exist as values: nothing defines their
//! output nodes, so the re-derived live set at that step is its leaves,
//! the products' operands and its output.

use dmac_core::plan::{MemoryCertificate, Operand, Plan, PlanStep};
use dmac_core::planner::{Planned, PlannerConfig};
use dmac_core::trace::Trace;
use dmac_lang::{BinOp, MatrixOrigin, OpKind, Program, UnaryOp};

/// Can this node materialise CSC-sparse tiles, or is it bounded by the
/// dense cap? Mirrors (independently) the forward class pass in
/// `dmac_core::liveness::storage_classes`.
fn sparse_class(program: &Program, plan: &Plan) -> Vec<bool> {
    let mut sparse = vec![false; plan.nodes.len()];
    for &(node, mid) in &plan.sources {
        sparse[node] = program
            .decl(mid)
            .map(|d| matches!(d.origin, MatrixOrigin::Load) && d.stats.sparsity < 1.0)
            .unwrap_or(false);
    }
    for step in &plan.steps {
        let Some(out) = step.out_node() else { continue };
        sparse[out] = match step {
            PlanStep::Partition { src, .. }
            | PlanStep::Broadcast { src, .. }
            | PlanStep::Extract { src, .. } => sparse[*src],
            PlanStep::Compute { op, inputs, .. } => match &program.ops()[*op].kind {
                OpKind::Binary { op: b, .. } => {
                    matches!(b, BinOp::Add | BinOp::Sub | BinOp::CellMul)
                        && inputs.iter().all(|o| sparse[o.node])
                }
                OpKind::Unary { op: u, .. } => {
                    matches!(u, UnaryOp::Scale(_)) && sparse[inputs[0].node]
                }
                OpKind::Reduce { .. } => false,
            },
            PlanStep::Fused { .. } => false,
        };
    }
    sparse
}

/// Strip count along one dimension (at least 1, matching the blocking).
fn strips(len: usize, block: usize) -> usize {
    len.div_ceil(block.max(1)).max(1)
}

/// Re-derived upper bound on one node's materialised bytes.
fn rederive_price(
    program: &Program,
    plan: &Plan,
    planned: &Planned,
    cfg: &PlannerConfig,
    sparse: &[bool],
    node: usize,
) -> u64 {
    let n = &plan.nodes[node];
    let Ok(decl) = program.decl(n.matrix) else {
        return 0;
    };
    // A node holds its matrix as itself; a view's transpose is scratch of
    // the primitive reading it, not a node, and prices nothing here.
    let (r, c) = (decl.stats.rows, decl.stats.cols);
    let cells = r as u64 * c as u64;
    if !sparse[node] {
        return 8 * cells;
    }
    let block = cfg.fusion_block.max(1);
    let (br, bc) = (strips(r, block) as u64, strips(c, block) as u64);
    let overhead = 4 * (br * c as u64 + br * bc);
    let nnz = planned
        .profiles
        .get(n.matrix as usize)
        .map(|p| p.nnz)
        .unwrap_or(cells);
    (16 * nnz).min(12 * cells) + overhead
}

/// Nodes the engine retains to the end of the run: program outputs plus,
/// per bound (`load`-origin) source, the first Row/Column
/// materialisation of that matrix (the session's cached placement).
fn rederive_keep(program: &Program, plan: &Plan) -> Vec<bool> {
    let mut keep = vec![false; plan.nodes.len()];
    for (node, _, _) in &plan.outputs {
        if let Some(k) = keep.get_mut(*node) {
            *k = true;
        }
    }
    for &(_, mid) in &plan.sources {
        if !program
            .decl(mid)
            .map(|d| matches!(d.origin, MatrixOrigin::Load))
            .unwrap_or(false)
        {
            continue;
        }
        if let Some(n) = plan
            .nodes
            .iter()
            .position(|n| n.matrix == mid && n.scheme.is_rc())
        {
            keep[n] = true;
        }
    }
    keep
}

/// Does `step` read node `n` tile-wise — is every output tile made from
/// `n`'s tile at its own coordinate, or through a view at the transposed
/// one? A move does; so does a computed cell-wise or unary operator, and
/// a fused chain its plain leaves; a multiplication and a reduction do
/// not, nor does a fused step read a product's operand so, even where it
/// also reads it as a leaf.
fn reads_tile_wise(program: &Program, step: &PlanStep, n: usize) -> bool {
    let reads = |inputs: &[Operand]| inputs.iter().any(|o| o.node == n);
    match step {
        PlanStep::Partition { src, .. }
        | PlanStep::Broadcast { src, .. }
        | PlanStep::Extract { src, .. } => *src == n,
        PlanStep::Fused {
            inputs, products, ..
        } => reads(inputs) && products.iter().all(|p| !reads(&p.inputs)),
        PlanStep::Compute { op, inputs, .. } => {
            let cellwise = match program.ops().get(*op).map(|o| &o.kind) {
                Some(OpKind::Binary { op: b, .. }) => *b != BinOp::MatMul,
                Some(OpKind::Unary { .. }) => true,
                _ => false,
            };
            cellwise && reads(inputs)
        }
    }
}

/// V18 + V19: the release discipline of the plan's release record.
fn check_releases(program: &Program, plan: &Plan) -> Result<(), String> {
    let keep = rederive_keep(program, plan);
    let n_nodes = plan.nodes.len();
    if plan.releases.len() > plan.steps.len() {
        return Err(format!(
            "V19: releases recorded for {} steps of a {}-step plan",
            plan.releases.len(),
            plan.steps.len()
        ));
    }
    let mut defined_at = vec![None::<usize>; n_nodes]; // None for sources
    let mut source = vec![false; n_nodes];
    let mut bound = vec![false; n_nodes];
    for &(node, mid) in &plan.sources {
        source[node] = true;
        bound[node] = program
            .decl(mid)
            .map(|d| matches!(d.origin, MatrixOrigin::Load))
            .unwrap_or(false);
    }
    // (step, consumed?) of each node's release.
    let mut released_at = vec![None::<(usize, bool)>; n_nodes];
    let mut last_read = vec![None::<usize>; n_nodes];
    for (i, step) in plan.steps.iter().enumerate() {
        for r in step.in_nodes() {
            if let Some((f, _)) = released_at.get(r).copied().flatten() {
                return Err(format!(
                    "V18: step {i} reads node {r} after its release at step {f}"
                ));
            }
            last_read[r] = Some(i);
        }
        if let Some(out) = step.out_node() {
            if let Some((f, _)) = released_at[out] {
                return Err(format!(
                    "V18: step {i} defines node {out} after its release at step {f}"
                ));
            }
            defined_at[out] = Some(i);
        }
        let releases = plan.releases_at(i);
        let consumed = releases.consumes.iter().map(|&n| (n, true));
        let freed = releases.frees.iter().map(|&n| (n, false));
        for (n, consumes) in consumed.chain(freed) {
            if n >= n_nodes {
                return Err(format!("V19: step {i} releases missing node {n}"));
            }
            if let Some((f, _)) = released_at[n] {
                return Err(format!(
                    "V19: node {n} released at step {i} and at step {f}"
                ));
            }
            if keep[n] {
                return Err(format!(
                    "V19: step {i} releases kept node {n} ({})",
                    plan.node_label(program, n)
                ));
            }
            if !source[n] && defined_at[n].is_none() {
                return Err(format!("V19: step {i} releases undefined node {n}"));
            }
            if consumes {
                let why = if !step.in_nodes().contains(&n) {
                    Some("does not read it")
                } else if !reads_tile_wise(program, step, n) {
                    Some("does not read it tile-wise")
                } else if bound[n] {
                    Some("it is a bound source")
                } else {
                    None
                };
                if let Some(why) = why {
                    return Err(format!("V19: step {i} consumes node {n}, but {why}"));
                }
            }
            released_at[n] = Some((i, consumes));
        }
    }
    if let Some((n, ..)) = (plan.outputs.iter())
        .find(|&&(n, ..)| n >= n_nodes || (!source[n] && defined_at[n].is_none()))
    {
        return Err(format!(
            "V19: an output is bound to node {n}, which no step defines"
        ));
    }
    // Completeness: every dead intermediate released exactly once, at its
    // anchor (last reader, else producer), and consumed by that reader
    // whenever it may consume it. Unused sources have no anchor step and
    // legitimately stay resident.
    for n in 0..n_nodes {
        if keep[n] || (!source[n] && defined_at[n].is_none()) {
            continue;
        }
        let anchor = match (last_read[n], defined_at[n]) {
            (Some(r), _) => r,
            (None, Some(d)) => d,
            (None, None) => continue,
        };
        match released_at[n] {
            None => {
                return Err(format!(
                    "V19: dead node {n} ({}) is never released (last use at step {anchor})",
                    plan.node_label(program, n)
                ));
            }
            Some((f, _)) if f != anchor => {
                return Err(format!(
                    "V19: node {n} released at step {f}, not at its last use, step {anchor}"
                ));
            }
            Some((_, consumed)) => {
                let consumable = last_read[n] == Some(anchor)
                    && !bound[n]
                    && reads_tile_wise(program, &plan.steps[anchor], n);
                if consumable && !consumed {
                    return Err(format!(
                        "V19: node {n} is freed after step {anchor}, but that step is its \
                         tile-wise last reader and must consume it"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// V20: the stored certificate dominates the re-derived per-step bound
/// and is internally consistent.
fn check_certificate(
    program: &Program,
    planned: &Planned,
    cfg: &PlannerConfig,
) -> Result<(), String> {
    let plan = &planned.plan;
    let cert = &planned.certificate;
    if cert.per_step.len() != plan.steps.len() {
        return Err(format!(
            "V20: certificate has {} entries for {} steps",
            cert.per_step.len(),
            plan.steps.len()
        ));
    }
    let sparse = sparse_class(program, plan);
    let price = |n: usize| rederive_price(program, plan, planned, cfg, &sparse, n);
    let mut live = vec![false; plan.nodes.len()];
    let mut resident = 0u64;
    for &(node, _) in &plan.sources {
        if !live[node] {
            live[node] = true;
            resident += price(node);
        }
    }
    for (i, step) in plan.steps.iter().enumerate() {
        if let Some(out) = step.out_node() {
            if !live[out] {
                live[out] = true;
                resident += price(out);
            }
        }
        let releases = plan.releases_at(i);
        for &n in &releases.consumes {
            if live[n] {
                live[n] = false;
                resident -= price(n);
            }
        }
        if cert.per_step[i] < resident {
            return Err(format!(
                "V20: certificate understates step {i}: certified {} bytes, independent \
                 re-derivation gives {resident}",
                cert.per_step[i]
            ));
        }
        for &n in &releases.frees {
            if live[n] {
                live[n] = false;
                resident -= price(n);
            }
        }
    }
    let max = cert.per_step.iter().copied().max().unwrap_or(0);
    if cert.peak != max {
        return Err(format!(
            "V20: certificate peak {} does not match its per-step maximum {max}",
            cert.peak
        ));
    }
    if !cert.per_step.is_empty() {
        match cert.per_step.get(cert.argmax) {
            Some(&v) if v == cert.peak => {}
            _ => {
                return Err(format!(
                    "V20: certificate argmax {} does not attain the peak {}",
                    cert.argmax, cert.peak
                ));
            }
        }
    }
    Ok(())
}

/// V18–V20 over a planned program: release discipline and certificate
/// soundness. Called from [`crate::verify_planned`].
pub fn check_liveness(
    program: &Program,
    planned: &Planned,
    cfg: &PlannerConfig,
) -> Result<(), String> {
    check_releases(program, &planned.plan)?;
    check_certificate(program, planned, cfg)
}

/// V21: the engine's measured per-step resident bytes never exceed the
/// certified bound.
pub fn check_observed(certificate: &MemoryCertificate, trace: &Trace) -> Result<(), String> {
    if certificate.per_step.len() != trace.steps.len() {
        return Err(format!(
            "V21: certificate covers {} steps but the trace recorded {}",
            certificate.per_step.len(),
            trace.steps.len()
        ));
    }
    for (i, (s, &bound)) in trace.steps.iter().zip(&certificate.per_step).enumerate() {
        if s.resident_bytes > bound {
            return Err(format!(
                "V21: step {i} ({}) observed {} resident bytes, certified at most {bound}",
                s.label, s.resident_bytes
            ));
        }
    }
    Ok(())
}
