//! Plan-level liveness analysis: which step releases each dead value
//! ([`Plan::releases`]), and the step-indexed [`MemoryCertificate`]
//! (resident-byte upper bounds).
//!
//! The paper's premise is that dependency structure is known statically;
//! this module exploits it for *memory* the way the planner exploits it
//! for communication. A walk over the finished plan finds each
//! intermediate's last reader, and that step releases it. When the reader
//! reads it tile-wise ([`tile_wise_inputs`]) it *consumes* the value: the
//! value dies inside the step, each input tile going once the output tile made from
//! it exists. Otherwise the step frees it right after it has run; a value
//! nothing reads is freed by the step that made it. Every dead value
//! therefore has exactly one releasing step, and a release is never a
//! step of its own. [`rederive`] first rebuilds what a free dependency
//! gives back rather than hold it. The pass then prices the live set
//! after every step with a storage-aware bound. A view's transpose is
//! scratch of the primitive that reads it — like a fused step's product
//! tiles, it lives only while that primitive runs — so it is priced at 0:
//! the bound counts plan nodes, and a view is none.
//!
//! * **Dense-class** nodes (matmul outputs, `+ scalar` results, anything
//!   with a dense operand) cost exactly `8·rows·cols` — the dense cap.
//! * **Sparse-class** nodes (loads declared sparse and cell-wise chains
//!   over them) cost `min(16·nnẑ, 12·cells) + colptr` where `nnẑ` is the
//!   propagated [`SparsityProfile`] count and `colptr` is the CSC
//!   column-pointer overhead of the session's blocking. The `16·nnẑ` arm covers blocks the
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

use crate::dependency::{classify, DependencyType::Extract};
use crate::plan::{MemoryCertificate, NodeId, Plan, PlanStep, Releases};
use crate::strategy::Strategy;

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
/// (partition/broadcast/extract) preserve their input's class, and so
/// does a view. Cell-wise `+`/`-`/`*` stay Sparse only when *every*
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
            | PlanStep::Extract { src, .. } => class[*src],
            PlanStep::Compute { op, inputs, .. } => match &program.ops()[*op].kind {
                OpKind::Binary { op: b, .. } => match b {
                    BinOp::Add | BinOp::Sub | BinOp::CellMul => {
                        if inputs.iter().all(|o| class[o.node] == StorageClass::Sparse) {
                            StorageClass::Sparse
                        } else {
                            StorageClass::Dense
                        }
                    }
                    BinOp::CellDiv | BinOp::MatMul => StorageClass::Dense,
                },
                OpKind::Unary { op: u, .. } => match u {
                    UnaryOp::Scale(_) => class[inputs[0].node],
                    UnaryOp::AddScalar(_) => StorageClass::Dense,
                },
                OpKind::Reduce { .. } => StorageClass::Dense,
            },
            // The fused interpreter materialises dense result tiles.
            PlanStep::Fused { .. } => StorageClass::Dense,
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
    let (r, c) = (decl.stats.rows, decl.stats.cols);
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
/// the first Row/Column materialisation of its matrix, which the session
/// keeps as the input's improved placement.
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
                .position(|node| node.matrix == mid && node.scheme.is_rc());
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

/// The inputs `step` reads tile-wise: each input tile feeds only the
/// output tile at its coordinate — or, through a view, at the transposed
/// one — so the step can drop it as soon as that output tile exists.
/// Every input of a move (`partition`, `broadcast`, `extract`) and of a
/// cell-wise compute (binary, unary); a fused step's plain leaves, save
/// one a product of it also reads. Never a multiplication's operand: an
/// RMM or CPMM input tile feeds many output tiles.
pub fn tile_wise_inputs(step: &PlanStep) -> Vec<NodeId> {
    match step {
        PlanStep::Partition { .. } | PlanStep::Broadcast { .. } | PlanStep::Extract { .. } => {
            step.in_nodes()
        }
        PlanStep::Compute {
            strategy, inputs, ..
        } => match strategy {
            Strategy::CellAligned(_) | Strategy::UnaryLocal => {
                inputs.iter().map(|o| o.node).collect()
            }
            _ => Vec::new(),
        },
        PlanStep::Fused {
            inputs, products, ..
        } => (inputs.iter().map(|o| o.node))
            .filter(|&n| {
                !products
                    .iter()
                    .any(|p| p.inputs.iter().any(|o| o.node == n))
            })
            .collect(),
    }
}

/// Nodes a tile-wise last reader may consume: all but the kept ones
/// ([`keep_set`]) and bound (`load`) sources, which the session owns.
fn consumable(program: &Program, plan: &Plan, keep: &[bool]) -> Vec<bool> {
    let mut ok: Vec<bool> = keep.iter().map(|&k| !k).collect();
    for &(node, mid) in &plan.sources {
        if program
            .decl(mid)
            .is_ok_and(|d| matches!(d.origin, MatrixOrigin::Load))
        {
            ok[node] = false;
        }
    }
    ok
}

/// The paper's free dependencies spent on memory: rebuild, rather than
/// hold, a value that a sibling gives back at 0 bytes. A node `x` read at
/// step `t` and again later is dropped after `t` (so a tile-wise reader
/// consumes it) and rebuilt into a fresh node from a sibling of the same
/// matrix that [`classify`] links to it by an Extract dependency (a
/// Broadcast copy; a Transpose dependency links no two nodes, since every
/// node holds its matrix as itself). The rebuild goes right after the sibling's last read,
/// which must fall between the drop and `x`'s next read, so the rebuild
/// consumes the sibling: the value trades one copy for another and is
/// never held twice. An output is read once more at the end of the plan,
/// and a rebuilt one is re-bound to the new node; a bound source and its
/// cached placement are never rebuilt. Every
/// inserted step is local and priced 0, so the plan moves the same bytes.
///
/// In step order, the best rebuild after each read is kept only if it
/// lowers (certified peak, steps at the peak). Records the releases
/// ([`record_releases`]) and returns the plan's certificate.
pub fn rederive(
    program: &Program,
    plan: &mut Plan,
    profiles: &[SparsityProfile],
    block: usize,
) -> MemoryCertificate {
    let certify = |plan: &mut Plan| {
        record_releases(program, plan);
        certificate(program, plan, profiles, block)
    };
    let score = |c: &MemoryCertificate| {
        let at_peak = c.per_step.iter().filter(|&&b| b == c.peak).count();
        (c.peak, at_peak)
    };
    let mut cert = certify(plan);
    let mut t = 0;
    while t < plan.steps.len() {
        let best = (plan.steps[t].in_nodes().into_iter())
            .flat_map(|x| rebuilds(program, plan, &cert, t, x))
            .map(|mut next| (certify(&mut next), next))
            .min_by_key(|(c, _)| score(c))
            .filter(|(c, _)| score(c) < score(&cert));
        if let Some((c, next)) = best {
            (*plan, cert) = (next, c);
        }
        t += 1;
    }
    cert
}

/// Every plan that rebuilds `x` after its read at step `t` (see
/// [`rederive`]): one per sibling whose last read falls between that read
/// and the next.
fn rebuilds(
    program: &Program,
    plan: &Plan,
    cert: &MemoryCertificate,
    t: usize,
    x: NodeId,
) -> Vec<Plan> {
    let want = &plan.nodes[x];
    let siblings: Vec<NodeId> = (plan.nodes.iter().enumerate())
        .filter(|(_, n)| n.matrix == want.matrix)
        .filter(|(_, n)| classify((false, n.scheme), (false, want.scheme)) == Some(Extract))
        .map(|(src, _)| src)
        .collect();
    // Not a bound source (see `consumable`).
    let free = consumable(program, plan, &vec![false; plan.nodes.len()]);
    let cached = cached_inputs(program, plan).iter().any(|&(_, n)| n == x);
    if siblings.is_empty() || cached || !free[x] {
        return Vec::new();
    }
    let keep = keep_set(program, plan);
    // An output is read once more, at the end of the plan.
    let next = (t + 1..plan.steps.len()).find(|&i| plan.steps[i].in_nodes().contains(&x));
    let Some(next) = next.or(keep[x].then_some(plan.steps.len())) else {
        return Vec::new();
    };
    let gone =
        |n: NodeId| (0..plan.steps.len()).find(|&i| plan.releases_at(i).all().any(|r| r == n));
    let mut plans = Vec::new();
    for src in siblings {
        // The rebuild consumes the sibling, so it may not be a kept value.
        let at = match gone(src) {
            Some(d) if (t..next).contains(&d) && free[src] => d + 1,
            _ => continue,
        };
        // Only a rebuild that drops `x` at a step of the peak can lower it.
        if !cert.per_step[t..at].contains(&cert.peak) {
            continue;
        }
        let mut rebuilt = plan.clone();
        let out = rebuilt.add_node(want.matrix, want.scheme, false);
        for step in &mut rebuilt.steps[at..] {
            step.replace_input(x, out);
        }
        for output in rebuilt.outputs.iter_mut().filter(|o| o.0 == x) {
            output.0 = out;
        }
        let phase = plan.steps[at.min(plan.steps.len() - 1)].phase();
        rebuilt
            .steps
            .insert(at, PlanStep::Extract { src, out, phase });
        rebuilt.predicted.resize(plan.steps.len(), 0);
        rebuilt.predicted.insert(at, 0);
        plans.push(rebuilt);
    }
    plans
}

/// Decide, once, which step releases each non-kept node, into
/// [`Plan::releases`]. A node its last reader reads tile-wise
/// ([`tile_wise_inputs`]) is consumed by it — unless it is a bound (`load`)
/// source, which the session owns. Every
/// other dead node is freed right after its last reader, or after its
/// producer if nothing reads it. Unused *sources* are left resident —
/// there is no step to anchor their release to, and the engine seeds them
/// before step 0. Each list is in ascending node order.
pub fn record_releases(program: &Program, plan: &mut Plan) {
    let keep = keep_set(program, plan);
    let consumable = consumable(program, plan, &keep);
    let nodes = plan.nodes.len();
    let mut last_use = vec![usize::MAX; nodes];
    let mut producer = vec![usize::MAX; nodes];
    for (i, step) in plan.steps.iter().enumerate() {
        for n in step.in_nodes() {
            last_use[n] = i;
        }
        if let Some(out) = step.out_node() {
            producer[out] = i;
        }
    }
    let mut releases = vec![Releases::default(); plan.steps.len()];
    for n in 0..nodes {
        if keep[n] {
            continue;
        }
        if last_use[n] != usize::MAX {
            let at = last_use[n];
            if consumable[n] && tile_wise_inputs(&plan.steps[at]).contains(&n) {
                releases[at].consumes.push(n);
            } else {
                releases[at].frees.push(n);
            }
        } else if producer[n] != usize::MAX {
            releases[producer[n]].frees.push(n);
        }
    }
    plan.releases = releases;
}

/// Price the live set after every step of `plan`, producing its
/// [`MemoryCertificate`]. A node is live from its defining step (sources
/// from step 0): through the step that frees it, until the step that
/// consumes it. Within-step transients (CPMM partials) are not counted,
/// matching the engine's post-step metering point.
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
    for (i, step) in plan.steps.iter().enumerate() {
        if let Some(out) = step.out_node() {
            if !live[out] {
                live[out] = true;
                resident += price(out);
            }
        }
        let releases = plan.releases_at(i);
        let mut gone = |n: NodeId| {
            if std::mem::take(&mut live[n]) {
                price(n)
            } else {
                0
            }
        };
        resident -= releases.consumes.iter().map(|&n| gone(n)).sum::<u64>();
        per_step.push(resident);
        resident -= releases.frees.iter().map(|&n| gone(n)).sum::<u64>();
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
    fn releases_are_recorded_and_certificate_attached() {
        let p = gnmf_h();
        let planned = plan_program(&p, &PlannerConfig::default(), 4, &HashMap::new()).unwrap();
        let plan = &planned.plan;
        assert_eq!(plan.releases.len(), plan.steps.len());
        let frees: usize = plan.releases.iter().map(|r| r.frees.len()).sum();
        assert!(frees > 0, "{}", plan.explain(&p));
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
    fn no_step_reads_a_released_node() {
        let p = gnmf_h();
        let planned = plan_program(&p, &PlannerConfig::default(), 4, &HashMap::new()).unwrap();
        let plan = &planned.plan;
        let mut released = vec![false; plan.nodes.len()];
        for (i, step) in plan.steps.iter().enumerate() {
            for n in step.in_nodes() {
                assert!(!released[n], "step {i} reads released node {n}");
            }
            for n in plan.releases_at(i).all() {
                assert!(!released[n], "node {n} released twice");
                released[n] = true;
            }
        }
    }

    #[test]
    fn a_tile_wise_last_reader_consumes_and_a_multiply_does_not() {
        // `B = A·A` is `A`'s first reader, not its last: `C = B + A`
        // reads both last and is tile-wise, so it consumes them, and
        // `D = 2·C` consumes `C`.
        let mut p = Program::new();
        let a = p.random("A", 64, 64);
        let b = p.matmul(a, a).unwrap();
        let c = p.add(b, a).unwrap();
        let d = p.scale_const(c, 2.0).unwrap();
        p.output(d);
        let cfg = PlannerConfig {
            fusion_block: 16,
            ..Default::default()
        };
        let planned = plan_program(&p, &cfg, 4, &HashMap::new()).unwrap();
        let plan = &planned.plan;
        let text = plan.explain(&p);
        let mut consumers = 0;
        for (i, step) in plan.steps.iter().enumerate() {
            for &n in &plan.releases_at(i).consumes {
                consumers += 1;
                assert!(
                    tile_wise_inputs(step).contains(&n),
                    "step {i} consumes what it does not read tile-wise\n{text}"
                );
                assert!(step.in_nodes().contains(&n), "{text}");
                let later = plan.steps[i + 1..].iter();
                assert!(later.clone().all(|s| !s.in_nodes().contains(&n)), "{text}");
            }
            if let PlanStep::Compute {
                strategy: Strategy::Rmm1 | Strategy::Rmm2 | Strategy::Cpmm,
                ..
            } = step
            {
                assert!(
                    plan.releases_at(i).consumes.is_empty(),
                    "a multiply consumes\n{text}"
                );
            }
        }
        assert!(consumers >= 3, "{text}");
        assert!(text.contains(" (consumes "), "{text}");
    }

    #[test]
    fn kept_nodes_are_never_freed() {
        let p = gnmf_h();
        let planned = plan_program(&p, &PlannerConfig::default(), 4, &HashMap::new()).unwrap();
        let keep = keep_set(&p, &planned.plan);
        for releases in &planned.plan.releases {
            assert!(releases.all().all(|n| !keep[n]));
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
