//! The execution plan: a DAG of materialised matrix instances connected by
//! compute steps and the extended operators of §4.2.1.
//!
//! A [`PlanNode`] is one *physical* matrix instance: a program value
//! materialised under a concrete partition scheme — the ellipses of the
//! paper's Figure 3 (`W1(b)`, `W1ᵀV(c)`, …). A [`PlanStep`] is an edge:
//! one of the three extended step kinds (`partition`, `broadcast`,
//! `extract`), a `compute` step carrying the chosen execution strategy,
//! or a fused chain of cell-wise operators and local products. The
//! paper's `reference` and `transpose` move no byte, so neither is a step:
//! the held node satisfies a Reference dependency, and an [`Operand`]
//! reading it as its transpose — a *view* — a Transpose one.

use std::fmt::Write as _;

use dmac_cluster::PartitionScheme;
use dmac_lang::{MatrixId, Program, ScalarExpr, ScalarId};
pub use dmac_matrix::FusedOp;

use crate::strategy::Strategy;

/// Index of a node in [`Plan::nodes`].
pub type NodeId = usize;

/// One materialised matrix instance: the program value itself, never
/// its transpose — a transpose is read through a view ([`Operand`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// The program value this node holds.
    pub matrix: MatrixId,
    /// Partition scheme the node is materialised under.
    pub scheme: PartitionScheme,
    /// CPMM outputs start flexible (`r|c`); the Re-assignment heuristic
    /// pins them. Flexible nodes are finalised to Row if never pinned.
    pub flexible: bool,
}

/// A matrix operand of a compute, fused step or [`Product`]: a node, as
/// it is held or — a *view*, Table 2's free Transpose dependency — as its
/// transpose in the flipped scheme, which the primitive resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operand {
    /// The node read.
    pub node: NodeId,
    /// Read as its transpose.
    pub transposed: bool,
}

impl Operand {
    /// `node`, read as it is held.
    pub fn plain(node: NodeId) -> Operand {
        Operand {
            node,
            transposed: false,
        }
    }
}

/// One step of the plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStep {
    /// `partition`: repartition `src` into `out`'s Row/Column scheme.
    /// **Communication.**
    Partition {
        /// Source node.
        src: NodeId,
        /// Destination node (its scheme is the repartition target).
        out: NodeId,
        /// Phase tag inherited from the consuming operator.
        phase: usize,
    },
    /// `broadcast`: replicate `src` on every worker. **Communication.**
    Broadcast {
        /// Source node.
        src: NodeId,
        /// Destination (Broadcast-scheme) node.
        out: NodeId,
        /// Phase tag.
        phase: usize,
    },
    /// `extract`: local filter of a Broadcast copy down to Row/Column. Free.
    Extract {
        /// Source (Broadcast) node.
        src: NodeId,
        /// Destination node.
        out: NodeId,
        /// Phase tag.
        phase: usize,
    },
    /// A decomposed program operator executed with a chosen strategy.
    Compute {
        /// Index of the operator in the program.
        op: usize,
        /// The selected execution strategy.
        strategy: Strategy,
        /// Input operands, in operand order.
        inputs: Vec<Operand>,
        /// Output node (None for reductions).
        out: Option<NodeId>,
        /// Output scalar (reductions only).
        out_scalar: Option<ScalarId>,
        /// Phase tag (iteration number).
        phase: usize,
    },
    /// A maximal group of scheme-aligned operators collapsed into one
    /// single-pass step: per output block, each of `products` is folded
    /// into a tile and the post-order `prog` is evaluated over the leaves,
    /// materialising only the final result. Purely local — never
    /// communication. With no products it is a fused cell-wise chain.
    Fused {
        /// Program operator indices subsumed by the fusion, in plan order:
        /// the cell-wise members and the products' multiplications.
        ops: Vec<usize>,
        /// Post-order expression program over the leaves: `Leaf(i)` pushes
        /// the `i`-th of `inputs` followed by `products` (so product `j`
        /// is leaf `inputs.len() + j`), binary instructions pop two
        /// operands, scalar instructions pop one. Scalar operands stay
        /// symbolic so the step can be replayed from lineage after the
        /// driver's reduction values are known; the engine resolves them
        /// at dispatch.
        prog: Vec<FusedOp<ScalarExpr>>,
        /// Plain leaf operands, read tile by tile.
        inputs: Vec<Operand>,
        /// Local products the step computes per output tile instead of
        /// reading a materialised value.
        products: Vec<Product>,
        /// Output node.
        out: NodeId,
        /// Phase tag.
        phase: usize,
    },
}

/// A multiplication a [`PlanStep::Fused`] step absorbs: a replication-based
/// multiply (RMM1 / RMM2, never CPMM) whose every output tile needs only
/// operand tiles its owner holds, so the step folds it per output tile
/// and its output never exists as a value.
#[derive(Debug, Clone, PartialEq)]
pub struct Product {
    /// Index of the multiplication in the program.
    pub op: usize,
    /// RMM1 or RMM2.
    pub strategy: Strategy,
    /// Left and right operands.
    pub inputs: [Operand; 2],
    /// The node the multiply would have defined: never materialised, read
    /// by nothing but the fused step's program.
    pub out: NodeId,
}

impl PlanStep {
    /// Phase tag of the step.
    pub fn phase(&self) -> usize {
        match self {
            PlanStep::Partition { phase, .. }
            | PlanStep::Broadcast { phase, .. }
            | PlanStep::Extract { phase, .. }
            | PlanStep::Compute { phase, .. }
            | PlanStep::Fused { phase, .. } => *phase,
        }
    }

    /// Does this step move data between workers? Partition and Broadcast
    /// always do; a Compute step does exactly when its strategy's output
    /// event communicates (CPMM).
    pub fn is_comm(&self) -> bool {
        match self {
            PlanStep::Partition { .. } | PlanStep::Broadcast { .. } => true,
            PlanStep::Compute { strategy, .. } => strategy.output_communicates(),
            _ => false,
        }
    }

    /// The step's kind as traces and EXPLAIN name it: a move's name, a
    /// compute's strategy, or `Fused(n)`.
    pub fn kind(&self) -> String {
        match self {
            PlanStep::Partition { .. } => "partition".into(),
            PlanStep::Broadcast { .. } => "broadcast".into(),
            PlanStep::Extract { .. } => "extract".into(),
            PlanStep::Compute { strategy, .. } => strategy.name(),
            PlanStep::Fused { ops, .. } => format!("Fused({})", ops.len()),
        }
    }

    /// The node this step defines, if any.
    pub fn out_node(&self) -> Option<NodeId> {
        match self {
            PlanStep::Partition { out, .. }
            | PlanStep::Broadcast { out, .. }
            | PlanStep::Extract { out, .. } => Some(*out),
            PlanStep::Compute { out, .. } => *out,
            PlanStep::Fused { out, .. } => Some(*out),
        }
    }

    /// Read `to` wherever this step reads `from`, through the same views.
    pub fn replace_input(&mut self, from: NodeId, to: NodeId) {
        match self {
            PlanStep::Partition { src, .. }
            | PlanStep::Broadcast { src, .. }
            | PlanStep::Extract { src, .. } => {
                if *src == from {
                    *src = to;
                }
            }
            PlanStep::Compute { inputs, .. } => replace(inputs, from, to),
            PlanStep::Fused {
                inputs, products, ..
            } => {
                replace(inputs, from, to);
                for p in products {
                    replace(&mut p.inputs, from, to);
                }
            }
        }
    }

    /// The operands this step reads: a move's source as held, a compute's
    /// inputs, a fused step's leaves then its products' operands.
    pub fn operands(&self) -> Vec<Operand> {
        match self {
            PlanStep::Partition { src, .. }
            | PlanStep::Broadcast { src, .. }
            | PlanStep::Extract { src, .. } => vec![Operand::plain(*src)],
            PlanStep::Compute { inputs, .. } => inputs.clone(),
            PlanStep::Fused {
                inputs, products, ..
            } => (inputs.iter())
                .chain(products.iter().flat_map(|p| &p.inputs))
                .copied()
                .collect(),
        }
    }

    /// The nodes this step reads.
    pub fn in_nodes(&self) -> Vec<NodeId> {
        self.operands().into_iter().map(|o| o.node).collect()
    }
}

/// Read `to` wherever `operands` reads `from`.
fn replace(operands: &mut [Operand], from: NodeId, to: NodeId) {
    for o in operands.iter_mut().filter(|o| o.node == from) {
        o.node = to;
    }
}

/// A step-indexed upper bound on resident bytes, produced by the
/// planner's liveness pass and re-derived independently by the verifier
/// (invariant V20). `per_step[i]` bounds the bytes of all plan nodes
/// live *after* `steps[i]` has executed — the inputs it consumes gone,
/// the values it frees ([`Releases::frees`]) still held; the engine's
/// metered [`crate::trace::StepTrace::resident_bytes`] must never exceed
/// it (invariant V21).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryCertificate {
    /// Per-step resident-byte bounds, parallel to [`Plan::steps`].
    pub per_step: Vec<u64>,
    /// Maximum of `per_step` (0 for empty plans).
    pub peak: u64,
    /// Index attaining the peak (first, if tied; 0 for empty plans).
    pub argmax: usize,
}

impl MemoryCertificate {
    /// Build a certificate from per-step bounds, computing peak/argmax.
    pub fn from_per_step(per_step: Vec<u64>) -> MemoryCertificate {
        let (argmax, peak) = per_step
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, &b)| (i, b))
            .unwrap_or((0, 0));
        MemoryCertificate {
            per_step,
            peak,
            argmax,
        }
    }
}

/// A complete execution plan for one program.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// All materialised matrix instances.
    pub nodes: Vec<PlanNode>,
    /// Steps in execution order.
    pub steps: Vec<PlanStep>,
    /// Source nodes: `(node, matrix id)` for every load/random input, in
    /// the placement it starts with.
    pub sources: Vec<(NodeId, MatrixId)>,
    /// Output bindings: `(node, program matrix id, optional store name)`,
    /// one per program output, in order; one read transposed (`X.t`) is
    /// transposed at the fetch and store boundary.
    pub outputs: Vec<(NodeId, MatrixId, Option<String>)>,
    /// `predicted[i]` is the planner's cost-model prediction (§4.1 event
    /// bytes) for `steps[i]`: `0` for non-communication dependencies,
    /// `|A|` for a partition, `N·|A|` for a broadcast,
    /// and `N·|AB|` for a CPMM compute step's output event. Kept parallel
    /// to `steps`; absent entries (plans built by hand in tests) read as 0.
    pub predicted: Vec<u64>,
    /// `predicted_nnz[i]` is the estimator's predicted non-zero count of
    /// the matrix `steps[i]` defines (0 for scalar/output-less steps).
    /// Stamped by the planner's post-pass; parallel to `steps`, absent
    /// entries read as 0.
    pub predicted_nnz: Vec<u64>,
    /// `releases[i]` names the dead values `steps[i]` releases, each
    /// value at exactly one step. Written once by the liveness pass
    /// ([`crate::liveness::record_releases`]); parallel to `steps`, absent
    /// entries release nothing.
    pub releases: Vec<Releases>,
}

/// The dead values one step releases.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Releases {
    /// Inputs the step *consumes*: it is their last reader and tile-wise,
    /// so each input tile goes once the output tile made from it exists.
    pub consumes: Vec<NodeId>,
    /// Values released right after the step has run: dead values it
    /// reads but may not consume, and values it makes that nothing reads.
    pub frees: Vec<NodeId>,
}

impl Releases {
    /// Every value the step releases: its consumed inputs, then its frees.
    pub fn all(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.consumes.iter().chain(&self.frees).copied()
    }
}

impl Plan {
    /// Add a node, returning its id.
    pub fn add_node(
        &mut self,
        matrix: MatrixId,
        scheme: PartitionScheme,
        flexible: bool,
    ) -> NodeId {
        self.nodes.push(PlanNode {
            matrix,
            scheme,
            flexible,
        });
        self.nodes.len() - 1
    }

    /// The scheme `operand` reads in: its node's, flipped Row ⇄ Column
    /// through a view (Broadcast and Hash stay).
    pub fn scheme_of(&self, operand: Operand) -> PartitionScheme {
        let scheme = self.nodes[operand.node].scheme;
        if operand.transposed {
            scheme.flip()
        } else {
            scheme
        }
    }

    /// Append a step together with its predicted cost-model bytes.
    pub fn push_step(&mut self, step: PlanStep, predicted_bytes: u64) {
        // Keep `predicted` aligned even if earlier steps were pushed
        // directly onto `steps` (hand-built plans in tests).
        self.predicted.resize(self.steps.len(), 0);
        self.steps.push(step);
        self.predicted.push(predicted_bytes);
    }

    /// The planner's predicted cost-model bytes for `steps[i]` (0 when the
    /// plan was built without predictions).
    pub fn predicted_bytes(&self, i: usize) -> u64 {
        self.predicted.get(i).copied().unwrap_or(0)
    }

    /// Sum of per-step predictions; equals the planner's `estimated_comm`
    /// for planner-built plans.
    pub fn predicted_total(&self) -> u64 {
        self.predicted.iter().sum()
    }

    /// The estimator's predicted output nnz for `steps[i]` (0 when the
    /// step defines no node or the plan was built without profiles).
    pub fn step_predicted_nnz(&self, i: usize) -> u64 {
        self.predicted_nnz.get(i).copied().unwrap_or(0)
    }

    /// What `steps[i]` releases (nothing when the plan was built without
    /// a liveness pass).
    pub fn releases_at(&self, i: usize) -> &Releases {
        static NONE: Releases = Releases {
            consumes: Vec::new(),
            frees: Vec::new(),
        };
        self.releases.get(i).unwrap_or(&NONE)
    }

    /// The copy a local `extract` at `steps[i]` rebuilds: an identical
    /// node released by an earlier step, and that step
    /// ([`crate::liveness::rederive`]).
    pub fn rebuilds(&self, i: usize) -> Option<(NodeId, usize)> {
        let PlanStep::Extract { out, .. } = self.steps.get(i)? else {
            return None;
        };
        (0..i).find_map(|j| {
            let mut released = self.releases_at(j).all();
            let twin = released.find(|&n| self.nodes[n] == self.nodes[*out])?;
            Some((twin, j))
        })
    }

    /// Finalise: any still-flexible CPMM output defaults to Row.
    pub fn finalize_flexible(&mut self) {
        for n in &mut self.nodes {
            if n.flexible {
                n.scheme = PartitionScheme::Row;
                n.flexible = false;
            }
        }
    }

    /// The strategy program operator `op` runs by: its compute step's, or
    /// the fused product's it became (a cell-wise fused member has none).
    pub fn strategy_of(&self, op: usize) -> Option<Strategy> {
        self.steps.iter().find_map(|s| match s {
            PlanStep::Compute {
                op: o, strategy, ..
            } if *o == op => Some(*strategy),
            PlanStep::Fused { products, .. } => {
                products.iter().find(|p| p.op == op).map(|p| p.strategy)
            }
            _ => None,
        })
    }

    /// Total modelled communication cost of the plan under a cost model:
    /// sum over comm steps of the moved estimate. Used by planner tests;
    /// the real metered value comes from execution.
    pub fn comm_step_count(&self) -> usize {
        self.steps.iter().filter(|s| s.is_comm()).count()
    }

    /// Human-readable label of a node, paper-style: `W1(b)`.
    pub fn node_label(&self, program: &Program, id: NodeId) -> String {
        self.operand_label(program, Operand::plain(id))
    }

    /// Human-readable label of an operand, paper-style: a view reads its
    /// node's transpose in the flipped scheme, `W1t(b)`.
    pub fn operand_label(&self, program: &Program, operand: Operand) -> String {
        let n = &self.nodes[operand.node];
        let name = program
            .decl(n.matrix)
            .map(|d| d.name.clone())
            .unwrap_or_else(|_| format!("m{}", n.matrix));
        let t = if operand.transposed { "t" } else { "" };
        format!("{name}{t}({})", self.scheme_of(operand).short())
    }

    /// Render the plan as Graphviz DOT — the paper's Figure 3 as an
    /// artifact: matrix instances are ellipses labelled `name(scheme)`,
    /// edges are operators, communication edges are red/bold, local
    /// (dependency) edges dashed blue, and nodes are ranked by stage.
    pub fn to_dot(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let stages = crate::stage::schedule(self);
        let mut s = String::new();
        let _ = writeln!(s, "digraph plan {{");
        let _ = writeln!(s, "  rankdir=TB; node [shape=ellipse, fontsize=10];");
        for (i, _) in self.nodes.iter().enumerate() {
            let _ = writeln!(
                s,
                "  n{i} [label=\"{}\"];",
                self.node_label(program, i).replace('"', "'")
            );
        }
        let mut op_counter = 0usize;
        for step in &self.steps {
            let label = step.kind();
            let style = match step {
                PlanStep::Partition { .. } | PlanStep::Broadcast { .. } => "color=red, penwidth=2",
                PlanStep::Extract { .. } => "color=blue, style=dashed",
                PlanStep::Compute { .. } => "color=black",
                PlanStep::Fused { .. } => "color=black, penwidth=2",
            };
            match step {
                PlanStep::Fused { out, .. } => {
                    for input in step.in_nodes() {
                        let _ = writeln!(s, "  n{input} -> n{out} [label=\"{label}\", {style}];");
                    }
                }
                PlanStep::Compute { inputs, out, .. } => {
                    let target = match out {
                        Some(o) => format!("n{o}"),
                        None => {
                            // Scalar sinks get a point node.
                            let id = format!("s{op_counter}");
                            let _ = writeln!(s, "  {id} [shape=point];");
                            id
                        }
                    };
                    op_counter += 1;
                    for input in inputs {
                        let n = input.node;
                        let _ = writeln!(s, "  n{n} -> {target} [label=\"{label}\", {style}];");
                    }
                }
                other => {
                    if let (Some(src), Some(out)) =
                        (other.in_nodes().first().copied(), other.out_node())
                    {
                        let _ = writeln!(s, "  n{src} -> n{out} [label=\"{label}\", {style}];");
                    }
                }
            }
        }
        // Rank nodes by stage (the Figure-3 horizontal bands).
        for k in 0..stages.count {
            let members: Vec<String> = stages
                .node_stage
                .iter()
                .enumerate()
                .filter(|(_, &st)| st == k)
                .map(|(i, _)| format!("n{i}"))
                .collect();
            if members.len() > 1 {
                let _ = writeln!(s, "  {{ rank=same; {}; }}", members.join("; "));
            }
        }
        let _ = writeln!(s, "}}");
        s
    }

    /// EXPLAIN-style dump of the plan (used by the `plan_explain` example
    /// and by debugging sessions). An operand read through a view is
    /// labelled as it reads, `W0t(c)`. A step names the values it releases
    /// last: `compute#7   RMM2 [W0(r), _t6(b)] -> _t7(r) (frees _t6(b))`;
    /// a rebuild names the copy it replaces: `extract     _t4(b) -> _t4(r)
    /// (re-derived; _t4(r) released at step 7) (consumes _t4(b))`.
    pub fn explain(&self, program: &Program) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "plan: {} nodes, {} steps",
            self.nodes.len(),
            self.steps.len()
        );
        for (i, step) in self.steps.iter().enumerate() {
            let line = match step {
                PlanStep::Partition { src, out, .. }
                | PlanStep::Broadcast { src, out, .. }
                | PlanStep::Extract { src, out, .. } => format!(
                    "{:<11} {} -> {}",
                    step.kind(),
                    self.node_label(program, *src),
                    self.node_label(program, *out)
                ),
                PlanStep::Compute {
                    op,
                    strategy,
                    inputs,
                    out,
                    ..
                } => {
                    let ins: Vec<String> = inputs
                        .iter()
                        .map(|&o| self.operand_label(program, o))
                        .collect();
                    let out_s = out
                        .map(|n| self.node_label(program, n))
                        .unwrap_or_else(|| "<scalar>".into());
                    format!(
                        "compute#{op:<3} {} [{}] -> {}",
                        strategy.name(),
                        ins.join(", "),
                        out_s
                    )
                }
                PlanStep::Fused {
                    ops,
                    inputs,
                    products,
                    out,
                    ..
                } => {
                    let label = |o| self.operand_label(program, o);
                    let plain = inputs.iter().map(|&o| label(o));
                    let products = products.iter().map(|p| {
                        let [a, b] = p.inputs;
                        format!("{} {}·{}", p.strategy.name(), label(a), label(b))
                    });
                    let ins: Vec<String> = plain.chain(products).collect();
                    format!(
                        "fused#{:<4} Fused({}) [{}] -> {}",
                        ops.iter()
                            .map(|o| o.to_string())
                            .collect::<Vec<_>>()
                            .join("+"),
                        ops.len(),
                        ins.join(", "),
                        self.node_label(program, *out)
                    )
                }
            };
            let comm = if step.is_comm() { " *comm*" } else { "" };
            let releases = self.releases_at(i);
            let mut released = String::new();
            if let Some((twin, j)) = self.rebuilds(i) {
                let label = self.node_label(program, twin);
                let _ = write!(released, " (re-derived; {label} released at step {j})");
            }
            for (verb, nodes) in [("consumes", &releases.consumes), ("frees", &releases.frees)] {
                if !nodes.is_empty() {
                    let labels: Vec<String> =
                        nodes.iter().map(|&n| self.node_label(program, n)).collect();
                    let _ = write!(released, " ({verb} {})", labels.join(", "));
                }
            }
            let _ = writeln!(s, "  [{i:>3}] {line}{comm}{released}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_kind_predicates() {
        let p = PlanStep::Partition {
            src: 0,
            out: 1,
            phase: 0,
        };
        assert!(p.is_comm());
        assert_eq!(p.out_node(), Some(1));
        assert_eq!(p.in_nodes(), vec![0]);

        let e = PlanStep::Extract {
            src: 0,
            out: 1,
            phase: 2,
        };
        assert!(!e.is_comm());
        assert_eq!(e.phase(), 2);

        let c = PlanStep::Compute {
            op: 0,
            strategy: Strategy::Cpmm,
            inputs: vec![Operand::plain(1), Operand::plain(2)],
            out: Some(3),
            out_scalar: None,
            phase: 0,
        };
        assert!(c.is_comm(), "CPMM output shuffles");
        let c2 = PlanStep::Compute {
            op: 0,
            strategy: Strategy::Rmm1,
            inputs: vec![Operand::plain(1), Operand::plain(2)],
            out: Some(3),
            out_scalar: None,
            phase: 0,
        };
        assert!(!c2.is_comm());
        assert_eq!(c2.in_nodes(), vec![1, 2]);
    }

    #[test]
    fn finalize_pins_flexible_to_row() {
        let mut plan = Plan::default();
        let n = plan.add_node(0, PartitionScheme::Col, true);
        plan.finalize_flexible();
        assert_eq!(plan.nodes[n].scheme, PartitionScheme::Row);
        assert!(!plan.nodes[n].flexible);
    }

    #[test]
    fn dot_output_is_wellformed() {
        let mut program = Program::new();
        let a = program.load("A", 8, 8, 1.0);
        let b = program.matmul(a, a).unwrap();
        program.output(b);
        let planned = crate::planner::plan_program(
            &program,
            &crate::planner::PlannerConfig::default(),
            2,
            &std::collections::HashMap::new(),
        )
        .unwrap();
        let dot = planned.plan.to_dot(&program);
        assert!(dot.starts_with("digraph plan {"), "{dot}");
        assert!(dot.trim_end().ends_with('}'), "{dot}");
        assert!(dot.contains("A(h)"), "{dot}");
        assert!(dot.contains("color=red"), "comm edges highlighted: {dot}");
        assert!(dot.matches("->").count() >= 2, "{dot}");
    }

    #[test]
    fn explain_renders_labels() {
        let mut program = Program::new();
        let w = program.load("W", 4, 4, 1.0);
        let x = program.matmul(w.t(), w).unwrap();
        program.output(x);

        let mut plan = Plan::default();
        let a = plan.add_node(w.id, PartitionScheme::Broadcast, false);
        let b = plan.add_node(w.id, PartitionScheme::Col, false);
        let c = plan.add_node(x.id, PartitionScheme::Col, false);
        let view = Operand {
            node: a,
            transposed: true,
        };
        plan.steps.push(PlanStep::Compute {
            op: 0,
            strategy: Strategy::Rmm1,
            inputs: vec![view, Operand::plain(b)],
            out: Some(c),
            out_scalar: None,
            phase: 0,
        });
        let text = plan.explain(&program);
        assert!(text.contains("Wt(b)"), "{text}");
        assert!(text.contains("RMM1"), "{text}");
    }
}
