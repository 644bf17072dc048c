//! The plan-generation algorithm (paper §4.2, Algorithm 1).
//!
//! The planner walks the decomposed operator sequence in program order
//! (multiplications hoisted among simultaneously-ready operators, §4.2.3).
//! For each operator it:
//!
//! 1. enumerates the candidate strategies ([`crate::strategy::candidates`]),
//! 2. prices each candidate with the dependency-oriented cost model — an
//!    input event is free exactly when a Non-Communication dependency
//!    (Reference / Transpose / Extract / Extract-Transpose, as
//!    [`crate::dependency::classify`] decides) links it to an output event
//!    already in the `OutputSet`,
//! 3. commits the `argmin` strategy, emitting the extended operators
//!    (`partition` / `broadcast` / `extract`) that realise each input's
//!    dependency — a Transpose dependency is no step: the consumer reads
//!    the held node through a view ([`Operand`]), and a transposed input
//!    that must move moves its source, read through a view on arrival,
//!
//! 4. registers repartitioned copies in the `OutputSet` (Algorithm 1,
//!    line 19) so later operators reuse them, and
//! 5. applies **Heuristic 1 (Pull-Up Broadcast)** — when a broadcast
//!    requirement meets an earlier paid partition of the same matrix, the
//!    earlier partition is rewritten into a broadcast + extract — and
//!    **Heuristic 2 (Re-assignment)** — CPMM outputs stay `r|c`-flexible
//!    until their first consumer pins the scheme that makes it free.
//!
//! With `exploit_dependencies = false` the same machinery plans like
//! **SystemML-S**: in program order, with neither heuristic, every input
//! event is priced and satisfied as if nothing were reusable (each
//! operator repartitions its inputs from the hash-partitioned cache),
//! which is exactly the baseline of §6.1.

use std::collections::HashMap;

use dmac_cluster::PartitionScheme;
use dmac_lang::{MatrixId, MatrixOrigin, MatrixRef, Program};
use dmac_stats::SparsityProfile;

use crate::cost::CostModel;
use crate::dependency::{classify, DependencyType};
use crate::error::{CoreError, Result};
use crate::plan::{MemoryCertificate, NodeId, Operand, Plan, PlanStep};
use crate::strategy::{candidates, Candidate, OutScheme, Strategy};

/// Planner knobs. The default is DMac; [`PlannerConfig::systemml_s`] is
/// the one other planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Track matrix dependencies across operators (the paper's core idea):
    /// the whole of Algorithm 1 — multiplication-first order, Pull-Up
    /// Broadcast, Re-assignment. `false` plans like SystemML-S.
    pub exploit_dependencies: bool,
    /// The session's square block size: the blocking the sparsity
    /// profiles are propagated in, the memory certificate prices CSC
    /// overhead at, and the fusion size gate counts blocks with.
    /// [`crate::session::SessionBuilder::build`] overwrites this with the
    /// session's block size.
    pub fusion_block: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            exploit_dependencies: true,
            fusion_block: 256,
        }
    }
}

impl PlannerConfig {
    /// The SystemML-S baseline: same strategies, cost model and local
    /// engine, no dependency tracking, no heuristics.
    pub fn systemml_s() -> PlannerConfig {
        PlannerConfig {
            exploit_dependencies: false,
            ..PlannerConfig::default()
        }
    }
}

/// Only fuse a cell-wise chain whose root output spans at least this many
/// blocks. On tiny grids the fused interpreter's per-call overhead exceeds
/// the saved materialisations and fusion *loses* wall time, so small
/// chains keep their plain cell-wise steps.
const FUSION_MIN_BLOCKS: usize = 32;

/// Element of the planner's `InputSet` (Algorithm 1, line 22): a paid
/// input event that Pull-Up Broadcast may later rewrite.
#[derive(Debug, Clone)]
struct InputRecord {
    matrix: MatrixId,
    scheme: PartitionScheme,
    cost: u64,
    /// Index of the `partition` step that satisfied this event, while it
    /// is still eligible for pull-up.
    partition_step: Option<usize>,
}

/// Result of planning: the plan plus the planner's own cost estimate.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The generated execution plan.
    pub plan: Plan,
    /// The planner's estimated total communication, in cost-model units
    /// (predicted-nnz bytes, `8 · nnz` of the propagated profile).
    pub estimated_comm: u64,
    /// Propagated sparsity profile per declared matrix (indexed by
    /// [`MatrixId`]); the basis of the nnz-costed pricing and of the
    /// per-step predicted nnz recorded into the plan.
    pub profiles: Vec<SparsityProfile>,
    /// Step-indexed upper bound on resident bytes (see
    /// [`crate::liveness::certificate`]): the admission-time memory
    /// contract the verifier re-derives (V20) and the engine's metering
    /// must stay under (V21).
    pub certificate: MemoryCertificate,
    /// How the search reached this plan from its seed.
    pub search: Search,
}

/// The record of [`plan_program_profiled`]'s search. A plan that was not
/// searched is its own seed, with no moves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Search {
    /// The placement product's winner: its predicted bytes.
    pub seed_comm: u64,
    /// The placement product's winner: its certified peak.
    pub seed_peak: u64,
    /// Each move the coordinate descent kept, in order, with the
    /// predicted bytes it saved.
    pub moves: Vec<(Move, u64)>,
}

/// One flip of the coordinate descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// `(op, from, to)`: multiplication `op` computed by `to`, not `from`.
    Strategy(usize, Strategy, Strategy),
    /// `(source, to)`: a source first placed `to`, or by its first reader.
    Place(MatrixId, Option<PartitionScheme>),
}

/// A free acquisition: the held node, the Row/Column scheme a flexible
/// one is pinned to (Heuristic 2), and the non-communication dependency
/// that links it to the input.
type Free = (NodeId, Option<PartitionScheme>, DependencyType);

/// A program with more Hash-placed inputs (`load` and `random` together)
/// than this seeds the search at first touch: the placement product plans
/// at most `4^k` times for `k` such inputs. The descent places each input
/// in linear time either way.
const MAX_PLACED_INPUTS: usize = 4;

/// A first placement, instead of by the first consumer: a `load` source
/// partitioned Row or Column before the first operator, a `random` source
/// generated Row, Column or Broadcast.
type Placement = Vec<(MatrixId, PartitionScheme)>;

/// The scheme a node must hold `r` in for `r`, read through a view when
/// transposed, to satisfy `req`: `req` itself, or flipped Row ⇄ Column.
fn held_scheme(r: &MatrixRef, req: PartitionScheme) -> PartitionScheme {
    if r.transposed {
        req.flip()
    } else {
        req
    }
}

/// Generate an execution plan for `program`.
///
/// `initial_schemes` gives the placement each load/random starts with
/// (from the session's cache of previous runs); anything absent starts
/// Hash-placed, like a freshly loaded RDD.
pub fn plan_program(
    program: &Program,
    cfg: &PlannerConfig,
    workers: usize,
    initial_schemes: &HashMap<MatrixId, PartitionScheme>,
) -> Result<Planned> {
    plan_program_profiled(program, cfg, workers, initial_schemes, &HashMap::new())
}

/// Like [`plan_program`], but with measured [`SparsityProfile`]s for
/// source matrices. Missing sources fall back to a uniform spread of the
/// static estimate, so an empty map reproduces [`plan_program`] exactly.
///
/// The plain greedy (first touch) is searched in two parts. Both keep a
/// plan only if it moves strictly fewer bytes at no higher a certified
/// peak than the incumbent (`improves`), and every plan is finished
/// alike ([`crate::liveness::rederive`]):
/// 1. **Product seed.** A Hash-placed input is placed by the whole
///    program: every choice per such input is planned (`placements`, up
///    to `MAX_PLACED_INPUTS` inputs), and the cheapest that improves on
///    first touch replaces it.
/// 2. **Coordinate descent** (DMac only; not when the seed moves nothing).
///    One coordinate at a time is flipped and the greedy re-plans with the
///    rest held: a multiplication's strategy or a Hash-placed source's
///    first placement. A flip that improves is kept, to a fixed point.
///
/// A program no move improves keeps first touch's plan, step for step.
pub fn plan_program_profiled(
    program: &Program,
    cfg: &PlannerConfig,
    workers: usize,
    initial_schemes: &HashMap<MatrixId, PartitionScheme>,
    sources: &HashMap<MatrixId, SparsityProfile>,
) -> Result<Planned> {
    program.validate()?;
    let profiles = propagate(program, cfg, sources);
    let greedy = |forced: &HashMap<usize, usize>, place: &[(MatrixId, PartitionScheme)]| {
        Planner::greedy(
            program,
            cfg,
            workers,
            initial_schemes,
            &profiles,
            Some(forced),
            place,
        )
    };
    let hashed = hashed_sources(program, cfg, initial_schemes);
    let mut forced = HashMap::new();
    let mut seed = (Placement::new(), greedy(&forced, &[])?.finish());
    // Only a cheaper plan can win, and the cheapest that certifies no
    // more memory does: finish (and certify) those in order of price.
    // Among passing plans of that price the fewest steps win (a rebuilt
    // copy is a step), and then enumeration order.
    let mut cheaper = Vec::new();
    let product = if hashed.len() <= MAX_PLACED_INPUTS {
        placements(&hashed)
    } else {
        Vec::new()
    };
    for place in product.into_iter().skip(1) {
        let p = greedy(&forced, &place)?;
        if p.estimated_comm < seed.1.estimated_comm {
            cheaper.push((place, p));
        }
    }
    cheaper.sort_by_key(|(_, p)| p.estimated_comm);
    let mut cheaper = cheaper.into_iter().peekable();
    while let Some((place, p)) = cheaper.next() {
        let price = p.estimated_comm;
        let same = std::iter::from_fn(|| cheaper.next_if(|(_, q)| q.estimated_comm == price));
        let passing = (std::iter::once((place, p)).chain(same))
            .map(|(place, p)| (place, p.finish()))
            .filter(|(_, p)| improves(p, &seed.1));
        if let Some(best) = passing.min_by_key(|(_, p)| p.plan.steps.len()) {
            seed = best;
            break;
        }
    }

    let (mut place, mut best) = seed;
    if !cfg.exploit_dependencies || best.estimated_comm == 0 {
        return Ok(best);
    }
    let ops = program.ops();
    loop {
        let mut moved = false;
        for coord in 0..ops.len() + hashed.len() {
            // Every other value of this coordinate, the rest held: the
            // forced strategies and placement it plans with, and the move.
            let mut flips = Vec::new();
            match ops.get(coord) {
                Some(op) if op.kind.is_matmul() => {
                    let from = best.plan.strategy_of(op.index).expect("a planned product");
                    let cands = candidates(&op.kind);
                    for (i, c) in cands.iter().enumerate().filter(|(_, c)| c.strategy != from) {
                        let mut forced = forced.clone();
                        forced.insert(op.index, i);
                        let mv = Move::Strategy(op.index, from, c.strategy);
                        flips.push((forced, place.clone(), mv));
                    }
                }
                Some(_) => {}
                None => {
                    let (matrix, schemes) = hashed[coord - ops.len()];
                    let now = place.iter().find(|p| p.0 == matrix).map(|p| p.1);
                    for to in choices(schemes).filter(|&to| to != now) {
                        let mut place = place.clone();
                        place.retain(|p| p.0 != matrix);
                        place.extend(to.map(|s| (matrix, s)));
                        place.sort_by_key(|p| p.0);
                        flips.push((forced.clone(), place, Move::Place(matrix, to)));
                    }
                }
            }
            for (f, pl, mv) in flips {
                // Only a cheaper plan is worth finishing (and certifying).
                let p = greedy(&f, &pl)?;
                if p.estimated_comm >= best.estimated_comm {
                    continue;
                }
                let mut p = p.finish();
                if improves(&p, &best) {
                    let saved = best.estimated_comm - p.estimated_comm;
                    p.search = std::mem::take(&mut best.search);
                    p.search.moves.push((mv, saved));
                    (best, forced, place, moved) = (p, f, pl, true);
                }
            }
        }
        if !moved {
            return Ok(best);
        }
    }
}

/// The one acceptance rule, for the product seed, every descent move and
/// the fusion of products alike: `next` replaces `incumbent` only if its
/// certified peak is no higher and it moves strictly fewer bytes, or as
/// many in fewer steps. The search only ever offers it cheaper plans; a
/// plan that folds products into its fused steps moves what its twin
/// without them does.
fn improves(next: &Planned, incumbent: &Planned) -> bool {
    let price = |p: &Planned| (p.estimated_comm, p.plan.steps.len());
    price(next) < price(incumbent) && next.certificate.peak <= incumbent.certificate.peak
}

/// Every `load` source that starts Hash-placed, with the Row and Column
/// first placements it may take, and every such `random` source, which
/// may also be generated Broadcast. DMac only: a cached placement is
/// never second-guessed.
fn hashed_sources(
    program: &Program,
    cfg: &PlannerConfig,
    initial_schemes: &HashMap<MatrixId, PartitionScheme>,
) -> Vec<(MatrixId, &'static [PartitionScheme])> {
    use PartitionScheme::{Broadcast, Col, Row};
    if !cfg.exploit_dependencies {
        return Vec::new();
    }
    program
        .matrices()
        .iter()
        .filter(|d| {
            initial_schemes
                .get(&d.id)
                .copied()
                .unwrap_or(PartitionScheme::Hash)
                == PartitionScheme::Hash
        })
        .filter_map(|d| match d.origin {
            MatrixOrigin::Load => Some((d.id, &[Row, Col][..])),
            MatrixOrigin::Random => Some((d.id, &[Row, Col, Broadcast][..])),
            MatrixOrigin::Op(_) => None,
        })
        .collect()
}

/// A source's first placements: by its first reader (`None`), then each
/// of `schemes`.
fn choices(schemes: &[PartitionScheme]) -> impl Iterator<Item = Option<PartitionScheme>> + '_ {
    std::iter::once(None).chain(schemes.iter().copied().map(Some))
}

/// The product of first placements over `hashed`, first touch (the empty
/// placement) first: every choice for every source.
fn placements(hashed: &[(MatrixId, &[PartitionScheme])]) -> Vec<Placement> {
    let mut out = vec![Placement::new()];
    for &(id, schemes) in hashed {
        out = out
            .into_iter()
            .flat_map(|place| {
                choices(schemes).map(move |s| {
                    let mut place = place.clone();
                    place.extend(s.map(|s| (id, s)));
                    place
                })
            })
            .collect();
    }
    out
}

/// The full planning entry point of the plain greedy: measured source
/// profiles *and* the strategy of selected operators *forced*
/// (`forced[op_index] = candidate index` in [`crate::strategy::candidates`]
/// order; unlisted operators keep the greedy argmin). Every input is
/// placed by its first consumer (first touch). Used by the exhaustive
/// oracle and by what-if analyses.
pub fn plan_with_forced_profiled(
    program: &Program,
    cfg: &PlannerConfig,
    workers: usize,
    initial_schemes: &HashMap<MatrixId, PartitionScheme>,
    sources: &HashMap<MatrixId, SparsityProfile>,
    forced: Option<&HashMap<usize, usize>>,
) -> Result<Planned> {
    program.validate()?;
    let profiles = propagate(program, cfg, sources);
    Ok(Planner::greedy(
        program,
        cfg,
        workers,
        initial_schemes,
        &profiles,
        forced,
        &[],
    )?
    .finish())
}

/// Source profiles propagated through `program` in the session's blocking
/// (the session overwrites `fusion_block` with its block size).
fn propagate(
    program: &Program,
    cfg: &PlannerConfig,
    sources: &HashMap<MatrixId, SparsityProfile>,
) -> Vec<SparsityProfile> {
    dmac_stats::propagate(program, sources, cfg.fusion_block.max(1))
}

/// The fusion pass: after planning (and the pull-up-broadcast /
/// re-assignment rewrites), collapse maximal groups of scheme-aligned
/// cell-wise compute steps into single [`PlanStep::Fused`] steps, and,
/// with `products`, absorb the local multiplications they read.
///
/// An intermediate is absorbed into its consumer exactly when
///
/// * the consumer is a cell-wise compute ([`Strategy::CellAligned`]
///   binaries whose result stays in the strategy's scheme, or
///   [`Strategy::UnaryLocal`] scalar unaries), and so is its producer —
///   or, with `products`, the producer is an RMM1 / RMM2 multiply (never
///   CPMM, whose output is aggregated across workers) whose result is in
///   the consumer's scheme, which the step then folds per output tile,
/// * it has exactly one consumer across the whole plan, and
/// * it is not a program output (outputs must materialise).
///
/// Because the contracted edge is a direct node identity, read as it is
/// held (never through a view), the two steps are guaranteed
/// scheme-compatible: any scheme change in between would have been
/// realised by an intervening partition/broadcast step, whose output
/// node — not the producer's — the consumer would read. All
/// member steps are communication-free (Table 2 charges an RMM output 0
/// bytes), so fusing moves no bytes and every per-step prediction stays
/// untouched. A product's operands are read as before, so they are
/// acquired as before.
///
/// Groups whose root output spans fewer than [`FUSION_MIN_BLOCKS`] blocks
/// (of side `block`) are left unfused. Returns whether a product was
/// absorbed.
fn fuse_cell_chains(program: &Program, plan: &mut Plan, block: usize, products: bool) -> bool {
    use crate::plan::{FusedOp, Product};
    use dmac_lang::{BinOp, OpKind, UnaryOp};
    use std::collections::HashSet;

    // Producer step and plan-wide consumer count per node.
    let mut producer: Vec<Option<usize>> = vec![None; plan.nodes.len()];
    let mut consumers = vec![0usize; plan.nodes.len()];
    for (i, s) in plan.steps.iter().enumerate() {
        if let Some(o) = s.out_node() {
            producer[o] = Some(i);
        }
        for n in s.in_nodes() {
            consumers[n] += 1;
        }
    }
    let is_output: HashSet<NodeId> = plan.outputs.iter().map(|&(n, _, _)| n).collect();

    #[derive(Clone, Copy, PartialEq)]
    enum Member {
        No,
        Cell,
        Product,
    }
    let member: Vec<Member> = plan
        .steps
        .iter()
        .map(|s| match s {
            PlanStep::Compute {
                op,
                strategy,
                out: Some(o),
                out_scalar: None,
                ..
            } => match strategy {
                // SystemML-S rehashes a binary's result into its cache — a
                // repartition at the step's own output — so only a result
                // left in the strategy's scheme can sit inside a chain.
                Strategy::CellAligned(s) if plan.nodes[*o].scheme == *s => Member::Cell,
                Strategy::UnaryLocal if matches!(program.ops()[*op].kind, OpKind::Unary { .. }) => {
                    Member::Cell
                }
                // Likewise a product left where its strategy puts it.
                Strategy::Rmm1 if products && plan.nodes[*o].scheme == PartitionScheme::Col => {
                    Member::Product
                }
                Strategy::Rmm2 if products && plan.nodes[*o].scheme == PartitionScheme::Row => {
                    Member::Product
                }
                _ => Member::No,
            },
            _ => Member::No,
        })
        .collect();

    // Union members across contractible producer→consumer edges. A
    // consumer is always cell-wise, so a product is only ever a leaf.
    let mut comp: Vec<usize> = (0..plan.steps.len()).collect();
    fn find(comp: &mut [usize], i: usize) -> usize {
        let mut r = i;
        while comp[r] != r {
            r = comp[r];
        }
        let mut c = i;
        while comp[c] != r {
            let next = comp[c];
            comp[c] = r;
            c = next;
        }
        r
    }
    for (j, s) in plan.steps.iter().enumerate() {
        if member[j] != Member::Cell {
            continue;
        }
        let scheme = s.out_node().map(|o| plan.nodes[o].scheme);
        for Operand {
            node: n,
            transposed,
        } in s.operands()
        {
            if transposed || consumers[n] != 1 || is_output.contains(&n) {
                continue;
            }
            let Some(i) = producer[n] else { continue };
            let joins = match member[i] {
                Member::Cell => true,
                Member::Product => Some(plan.nodes[n].scheme) == scheme,
                Member::No => false,
            };
            if joins {
                let (ri, rj) = (find(&mut comp, i), find(&mut comp, j));
                comp[ri] = rj;
            }
        }
    }
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, &m) in member.iter().enumerate() {
        if m != Member::No {
            let r = find(&mut comp, i);
            groups.entry(r).or_default().push(i);
        }
    }

    // Build one fused step per multi-member group. Within a group every
    // contracted edge points at a unique consumer, so the member with the
    // highest plan index is the unique root — a cell-wise step, read by
    // nothing in the group — and by then every leaf exists.
    let mut fused_at: HashMap<usize, PlanStep> = HashMap::new();
    let mut absorbed: HashSet<usize> = HashSet::new();
    let mut any_product = false;
    for mut members in groups.into_values() {
        if members.len() < 2 {
            continue;
        }
        members.sort_unstable();
        let member_set: HashSet<usize> = members.iter().copied().collect();
        let root = *members.last().expect("non-empty group");
        let root_out = plan.steps[root]
            .out_node()
            .expect("fusable steps define a node");
        // Size gate: skip chains over grids too small to amortise the
        // fused interpreter.
        let blocks = program
            .decl(plan.nodes[root_out].matrix)
            .map(|d| {
                dmac_matrix::blocking::blocks_along(d.stats.rows, block)
                    * dmac_matrix::blocking::blocks_along(d.stats.cols, block)
            })
            .unwrap_or(0);
        if blocks < FUSION_MIN_BLOCKS {
            continue;
        }

        // Post-order expression program over the group's leaves: plain
        // nodes first, then products, so a leaf is numbered once all are
        // known (`Err(j)` stands for product `j` until then).
        let mut leaves: Vec<Operand> = Vec::new();
        let mut prods: Vec<Product> = Vec::new();
        let mut prog: Vec<std::result::Result<FusedOp<_>, usize>> = Vec::new();
        let mut stack = vec![(Operand::plain(root_out), false)];
        while let Some((leaf, emitted)) = stack.pop() {
            let node = leaf.node;
            let in_group = producer[node].filter(|i| member_set.contains(i));
            let Some(i) = in_group.filter(|_| !leaf.transposed) else {
                let idx = leaves.iter().position(|&l| l == leaf).unwrap_or_else(|| {
                    leaves.push(leaf);
                    leaves.len() - 1
                });
                prog.push(Ok(FusedOp::Leaf(idx)));
                continue;
            };
            let PlanStep::Compute {
                op,
                strategy,
                inputs,
                ..
            } = &plan.steps[i]
            else {
                unreachable!("fusable steps are computes");
            };
            if member[i] == Member::Product {
                prog.push(Err(prods.len()));
                prods.push(Product {
                    op: *op,
                    strategy: *strategy,
                    inputs: [inputs[0], inputs[1]],
                    out: node,
                });
            } else if emitted {
                prog.push(Ok(match &program.ops()[*op].kind {
                    OpKind::Binary { op: b, .. } => match b {
                        BinOp::Add => FusedOp::Add,
                        BinOp::Sub => FusedOp::Sub,
                        BinOp::CellMul => FusedOp::CellMul,
                        BinOp::CellDiv => FusedOp::CellDiv,
                        BinOp::MatMul => unreachable!("a cell-wise member is no matmul"),
                    },
                    OpKind::Unary { op: u, .. } => match u {
                        UnaryOp::Scale(e) => FusedOp::Scale(e.clone()),
                        UnaryOp::AddScalar(e) => FusedOp::AddScalar(e.clone()),
                    },
                    OpKind::Reduce { .. } => unreachable!("reductions are not fusable"),
                }));
            } else {
                stack.push((leaf, true));
                for &input in inputs.iter().rev() {
                    stack.push((input, false));
                }
            }
        }
        let prog = prog
            .into_iter()
            .map(|instr| instr.unwrap_or_else(|j| FusedOp::Leaf(leaves.len() + j)))
            .collect();
        any_product |= !prods.is_empty();

        let member_ops: Vec<usize> = members
            .iter()
            .map(|&i| match &plan.steps[i] {
                PlanStep::Compute { op, .. } => *op,
                _ => unreachable!("fusable steps are computes"),
            })
            .collect();
        fused_at.insert(
            root,
            PlanStep::Fused {
                ops: member_ops,
                prog,
                inputs: leaves,
                products: prods,
                out: root_out,
                phase: plan.steps[root].phase(),
            },
        );
        absorbed.extend(members.iter().copied().filter(|&i| i != root));
    }
    if fused_at.is_empty() {
        return false;
    }

    // Rebuild steps/predictions, dropping absorbed members (all comm-free,
    // so every dropped prediction is 0 and the totals are unchanged).
    let old_steps = std::mem::take(&mut plan.steps);
    let old_predicted = std::mem::take(&mut plan.predicted);
    for (i, step) in old_steps.into_iter().enumerate() {
        if absorbed.contains(&i) {
            debug_assert_eq!(old_predicted.get(i).copied().unwrap_or(0), 0);
            continue;
        }
        let step = fused_at.remove(&i).unwrap_or(step);
        plan.steps.push(step);
        plan.predicted
            .push(old_predicted.get(i).copied().unwrap_or(0));
    }
    any_product
}

/// The post-passes after fusion: the liveness pass (after fusion, so
/// releases anchor to the steps that actually execute), the predicted nnz
/// of every step that defines a node, and the certificate.
fn certify(
    program: &Program,
    mut plan: Plan,
    profiles: &[SparsityProfile],
    block: usize,
    estimated_comm: u64,
) -> Planned {
    let certificate = crate::liveness::rederive(program, &mut plan, profiles, block);
    plan.predicted_nnz = (plan.steps.iter())
        .map(|s| {
            s.out_node()
                .map(|n| profiles[plan.nodes[n].matrix as usize].nnz)
                .unwrap_or(0)
        })
        .collect();
    let search = Search {
        seed_comm: estimated_comm,
        seed_peak: certificate.peak,
        moves: Vec::new(),
    };
    Planned {
        plan,
        estimated_comm,
        profiles: profiles.to_vec(),
        certificate,
        search,
    }
}

/// Exhaustive planning oracle: enumerate every first placement of the
/// Hash-placed inputs (`placements`, uncapped) times every per-operator strategy
/// assignment, plan each with the full dependency machinery, and return
/// the cheapest plan by estimated communication. The planner's own plan
/// is one of these combinations, so the oracle never costs more.
/// Exponential in the number of multi-strategy operators — refuses
/// programs with more than `max_combinations` combinations. Exists to
/// validate the greedy Algorithm 1 on small programs
/// (`tests/planner_oracle.rs`).
pub fn plan_exhaustive(
    program: &Program,
    cfg: &PlannerConfig,
    workers: usize,
    initial_schemes: &HashMap<MatrixId, PartitionScheme>,
    max_combinations: usize,
) -> Result<Planned> {
    program.validate()?;
    let profiles = propagate(program, cfg, &HashMap::new());
    let hashed = hashed_sources(program, cfg, initial_schemes);
    // Candidate count per operator.
    let counts: Vec<usize> = program
        .ops()
        .iter()
        .map(|op| candidates(&op.kind).len())
        .collect();
    let places = hashed.iter().map(|(_, schemes)| schemes.len() + 1);
    let total: usize = (counts.iter().copied().chain(places))
        .try_fold(1usize, |acc, c| {
            acc.checked_mul(c).filter(|&t| t <= max_combinations)
        })
        .ok_or_else(|| {
            CoreError::Planner(format!(
                "exhaustive search over {} operators and {} placed inputs exceeds the {} combination budget",
                counts.len(),
                hashed.len(),
                max_combinations
            ))
        })?;
    let places = placements(&hashed);
    // The post-passes move no bytes, so only the winner is finished.
    let mut best: Option<Planner> = None;
    for place in &places {
        for mut combo in 0..total / places.len() {
            let mut forced = HashMap::new();
            for (op_idx, &c) in counts.iter().enumerate() {
                forced.insert(op_idx, combo % c);
                combo /= c;
            }
            let planned = Planner::greedy(
                program,
                cfg,
                workers,
                initial_schemes,
                &profiles,
                Some(&forced),
                place,
            )?;
            if best
                .as_ref()
                .map(|b| planned.estimated_comm < b.estimated_comm)
                .unwrap_or(true)
            {
                best = Some(planned);
            }
        }
    }
    Ok(best.expect("at least one combination").finish())
}

struct Planner<'a> {
    program: &'a Program,
    cfg: PlannerConfig,
    cost: CostModel,
    plan: Plan,
    /// `OutputSet`: every materialised node per base matrix.
    avail: HashMap<MatrixId, Vec<NodeId>>,
    /// `InputSet`: paid input events, for Pull-Up Broadcast.
    input_records: Vec<InputRecord>,
    estimated_comm: u64,
    /// Forced strategy choices (op index -> candidate index).
    forced: HashMap<usize, usize>,
    /// Propagated sparsity profile per matrix id.
    profiles: &'a [SparsityProfile],
}

impl<'a> Planner<'a> {
    /// Algorithm 1 over `program`: seed the sources, place `place`'s,
    /// plan every operator, bind the outputs. Every byte the plan moves
    /// is priced by the time this returns.
    ///
    /// A placed `load` is acquired as a Row / Column requirement at phase
    /// 0: the same `partition` step, at the same `|A|` price, that its
    /// first consumer would pay, joining the `OutputSet` and the
    /// `InputSet` so later operators and Pull-Up Broadcast see it. A
    /// placed `random` source is seeded in its scheme: its workers
    /// generate exactly the tiles they hold, so it moves nothing and
    /// costs nothing.
    fn greedy(
        program: &'a Program,
        cfg: &PlannerConfig,
        workers: usize,
        initial_schemes: &HashMap<MatrixId, PartitionScheme>,
        profiles: &'a [SparsityProfile],
        forced: Option<&HashMap<usize, usize>>,
        place: &[(MatrixId, PartitionScheme)],
    ) -> Result<Self> {
        let mut p = Planner {
            program,
            cfg: *cfg,
            cost: CostModel::new(workers),
            plan: Plan::default(),
            avail: HashMap::new(),
            input_records: Vec::new(),
            estimated_comm: 0,
            forced: forced.cloned().unwrap_or_default(),
            profiles,
        };
        let mut initial = initial_schemes.clone();
        let mut acquired = Vec::new();
        for &(id, scheme) in place {
            if matches!(program.decl(id)?.origin, MatrixOrigin::Random) {
                initial.insert(id, scheme);
            } else {
                acquired.push((id, scheme));
            }
        }
        p.seed_sources(&initial);
        for (id, scheme) in acquired {
            let r = MatrixRef {
                id,
                transposed: false,
            };
            p.acquire(&r, Some(scheme), 0)?;
        }
        for &op_idx in &program.planner_order(cfg.exploit_dependencies) {
            p.plan_operator(op_idx)?;
        }
        p.bind_outputs()?;
        Ok(p)
    }

    /// The post-passes, none of which moves a byte: pin what is still
    /// flexible, fuse cell-wise chains, rebuild rather than hold what a
    /// free dependency gives back, record releases, stamp predicted nnz
    /// and certify memory. Every plan goes through this one finish.
    ///
    /// Fusion is tried with product leaves and without; the plan with them
    /// is kept only if it [`improves`] on the one without, so folding a
    /// multiply into its consumer never raises the certified peak.
    fn finish(mut self) -> Planned {
        let (program, block) = (self.program, self.cfg.fusion_block.max(1));
        let (profiles, estimated_comm) = (self.profiles, self.estimated_comm);
        let certify = |plan| certify(program, plan, profiles, block, estimated_comm);
        self.plan.finalize_flexible();
        let mut with = self.plan.clone();
        if !fuse_cell_chains(program, &mut with, block, true) {
            return certify(with);
        }
        fuse_cell_chains(program, &mut self.plan, block, false);
        let (with, without) = (certify(with), certify(self.plan));
        if improves(&with, &without) {
            with
        } else {
            without
        }
    }

    fn seed_sources(&mut self, initial: &HashMap<MatrixId, PartitionScheme>) {
        for decl in self.program.matrices() {
            if matches!(decl.origin, MatrixOrigin::Load | MatrixOrigin::Random) {
                let scheme = initial
                    .get(&decl.id)
                    .copied()
                    .unwrap_or(PartitionScheme::Hash);
                let node = self.plan.add_node(decl.id, scheme, false);
                self.plan.sources.push((node, decl.id));
                self.avail.entry(decl.id).or_default().push(node);
            }
        }
    }

    /// `|A|` of matrix `id` in cost-model bytes: `8 · nnz` of its
    /// propagated profile. A dense profile prices at the static worst
    /// case (`density = 1.0` special case).
    fn bytes_of_matrix(&self, id: MatrixId) -> u64 {
        self.profiles[id as usize].predicted_bytes()
    }

    fn size_of(&self, r: &MatrixRef) -> u64 {
        // |A| is invariant under transposition.
        self.bytes_of_matrix(r.id)
    }

    fn register(&mut self, node: NodeId) {
        let m = self.plan.nodes[node].matrix;
        self.avail.entry(m).or_default().push(node);
    }

    /// Search the `OutputSet` for a node that satisfies `(id, transposed,
    /// req)` through a non-communication dependency ([`classify`]), in the
    /// order Reference, the Heuristic-2 pins (Reference, then Transpose),
    /// Transpose, Extract, Extract-Transpose: the first node of the first
    /// kind that has one wins. Every node holds its matrix as itself.
    fn find_free(&self, r: &MatrixRef, req: PartitionScheme) -> Option<Free> {
        use DependencyType::{Extract, ExtractTranspose, Reference, Transpose};
        if !self.cfg.exploit_dependencies {
            return None;
        }
        let nodes = self.avail.get(&r.id)?;
        let want = (r.transposed, req);
        let held = |dep| {
            nodes.iter().copied().find_map(|n| {
                let x = &self.plan.nodes[n];
                let fixed = !x.flexible && classify((false, x.scheme), want) == Some(dep);
                fixed.then_some((n, None, dep))
            })
        };
        // Heuristic 2: a flexible CPMM output is pinned to whichever of
        // Row and Column makes it free.
        let pinned = |dep| {
            let pins = [PartitionScheme::Row, PartitionScheme::Col];
            let flexible = |&n: &NodeId| self.plan.nodes[n].flexible;
            nodes.iter().copied().filter(flexible).find_map(|n| {
                let pin = pins
                    .into_iter()
                    .find(|&p| classify((false, p), want) == Some(dep))?;
                Some((n, Some(pin), dep))
            })
        };
        held(Reference)
            .or_else(|| pinned(Reference))
            .or_else(|| pinned(Transpose))
            .or_else(|| held(Transpose))
            .or_else(|| held(Extract))
            .or_else(|| held(ExtractTranspose))
    }

    /// Price an input event without mutating state.
    fn probe_cost(&self, r: &MatrixRef, req: Option<PartitionScheme>) -> u64 {
        let Some(req) = req else { return 0 };
        let free = self.find_free(r, req).is_some();
        self.cost.input_cost(req, free, self.size_of(r))
    }

    /// The first node holding `r.id`.
    fn any_node(&self, r: &MatrixRef) -> Result<NodeId> {
        let nodes = self.avail.get(&r.id).filter(|v| !v.is_empty());
        nodes.map(|v| v[0]).ok_or(CoreError::Planner(format!(
            "matrix {} referenced before materialisation",
            r.id
        )))
    }

    /// Acquire an input event: returns the operand that satisfies it — a
    /// node, read through a view when `r` is transposed — emitting
    /// extended-operator steps and paying communication as needed.
    fn acquire(
        &mut self,
        r: &MatrixRef,
        req: Option<PartitionScheme>,
        phase: usize,
    ) -> Result<Operand> {
        let view = |node| Operand {
            node,
            transposed: r.transposed,
        };
        let Some(req) = req else {
            // No scheme requirement (unary/reduce): read any node. A
            // flexible node is pinned to Row first.
            let n = self.any_node(r)?;
            if self.plan.nodes[n].flexible {
                self.plan.nodes[n].scheme = PartitionScheme::Row;
                self.plan.nodes[n].flexible = false;
            }
            return Ok(view(n));
        };

        if let Some(free) = self.find_free(r, req) {
            return Ok(view(self.realize_free(free, r, req, phase)));
        }

        // Heuristic 1: a broadcast need meets an earlier paid partition of
        // the same matrix — rewrite that partition into broadcast+extract.
        if self.cfg.exploit_dependencies && req == PartitionScheme::Broadcast {
            if let Some(rec_idx) = self.input_records.iter().position(|rec| {
                rec.matrix == r.id
                    && rec.scheme.is_rc()
                    && rec.cost > 0
                    && rec.partition_step.is_some()
            }) {
                self.pull_up(rec_idx)?;
                if let Some(free) = self.find_free(r, req) {
                    return Ok(view(self.realize_free(free, r, req, phase)));
                }
            }
        }

        // Pay for the communication dependency: a transposed input moves
        // its source into the flipped scheme (Transpose-Partition is a
        // partition plus the view, Transpose-Broadcast a broadcast plus
        // the view).
        let size = self.size_of(r);
        let cost = self.cost.input_cost(req, false, size);
        self.estimated_comm += cost;
        let src = self.any_node(r)?;
        let scheme = held_scheme(r, req);
        let out = self.plan.add_node(r.id, scheme, false);
        let step = match scheme {
            PartitionScheme::Row | PartitionScheme::Col => PlanStep::Partition { src, out, phase },
            PartitionScheme::Broadcast => PlanStep::Broadcast { src, out, phase },
            PartitionScheme::Hash => {
                return Err(CoreError::Planner("hash is never a requirement".into()))
            }
        };
        let step_idx = self.plan.steps.len();
        self.plan.push_step(step, cost);
        // Algorithm 1 line 19: the repartitioned copy joins the OutputSet
        // (SystemML-S registers it too; its `find_free` never looks).
        self.register(out);
        // Algorithm 1 line 22: record the input event for Pull-Up Broadcast.
        self.input_records.push(InputRecord {
            matrix: r.id,
            scheme,
            cost,
            partition_step: scheme.is_rc().then_some(step_idx),
        });
        Ok(view(out))
    }

    /// Emit the local, 0-priced `extract` that filters the Broadcast node
    /// `src` down to a fresh node under `scheme`.
    fn extract(&mut self, src: NodeId, scheme: PartitionScheme, phase: usize) -> NodeId {
        let out = self
            .plan
            .add_node(self.plan.nodes[src].matrix, scheme, false);
        self.plan
            .push_step(PlanStep::Extract { src, out, phase }, 0);
        self.register(out);
        out
    }

    /// Emit the local steps realising a free dependency found by
    /// [`Self::find_free`] — pinning the node first if it is flexible —
    /// and return the node that, read through a view when `r` is
    /// transposed, satisfies `(r, req)`: the held node for Reference and
    /// Transpose, an extract of it for Extract and Extract-Transpose.
    fn realize_free(
        &mut self,
        (n, pin, dep): Free,
        r: &MatrixRef,
        req: PartitionScheme,
        phase: usize,
    ) -> NodeId {
        if let Some(pin) = pin {
            self.plan.nodes[n].scheme = pin;
            self.plan.nodes[n].flexible = false;
        }
        match dep {
            DependencyType::Reference | DependencyType::Transpose => n,
            DependencyType::Extract | DependencyType::ExtractTranspose => {
                self.extract(n, held_scheme(r, req), phase)
            }
            _ => unreachable!("find_free returns only free dependencies"),
        }
    }

    /// Heuristic 1: rewrite the recorded partition step into
    /// broadcast + extract of the same source, so the broadcast copy also
    /// serves the pending broadcast requirement.
    fn pull_up(&mut self, rec_idx: usize) -> Result<()> {
        let step_idx = self.input_records[rec_idx]
            .partition_step
            .expect("checked by caller");
        let PlanStep::Partition { src, out, phase } = self.plan.steps[step_idx].clone() else {
            return Err(CoreError::Planner(
                "pull-up record does not point at a partition step".into(),
            ));
        };
        // Broadcast the partition's source, then extract what the original
        // consumer needed.
        let matrix = self.plan.nodes[src].matrix;
        let b = self
            .plan
            .add_node(matrix, PartitionScheme::Broadcast, false);
        let size = self.bytes_of_matrix(matrix);
        let replacement = vec![
            PlanStep::Broadcast { src, out: b, phase },
            PlanStep::Extract { src: b, out, phase },
        ];
        let added = replacement.len() - 1;
        self.plan.steps.splice(step_idx..=step_idx, replacement);
        // Keep the per-step predictions in lockstep with the splice: the
        // |A| partition becomes an N·|A| broadcast plus a free extract.
        self.plan.predicted.resize(self.plan.steps.len() - added, 0);
        self.plan
            .predicted
            .splice(step_idx..=step_idx, vec![self.cost.workers * size, 0]);
        self.register(b);
        // Cost bookkeeping: the earlier |A| partition became an N·|A|
        // broadcast; the pending N·|A| broadcast becomes free.
        self.estimated_comm = self.estimated_comm.saturating_sub(size);
        self.estimated_comm += self.cost.workers * size;
        // Fix up stored step indices after the splice.
        for rec in &mut self.input_records {
            if let Some(s) = rec.partition_step {
                if s > step_idx {
                    rec.partition_step = Some(s + added);
                } else if s == step_idx {
                    rec.partition_step = None;
                }
            }
        }
        Ok(())
    }

    /// Which one-dimensional scheme would the next program-order consumer
    /// of `matrix` like it in? Used by the RMM-tie half of Heuristic 2: a
    /// multiplication consuming it on the left wants Row (RMM2/CPMM read
    /// the left operand row-ish), on the right wants Column; a transposed
    /// reference flips the preference. Non-multiplication consumers have
    /// no strong preference.
    fn next_consumer_preference(
        &self,
        after_op: usize,
        matrix: MatrixId,
    ) -> Option<PartitionScheme> {
        for op in self.program.ops().iter().filter(|o| o.index > after_op) {
            if let dmac_lang::OpKind::Binary { op: bin, lhs, rhs } = &op.kind {
                if !bin.is_matmul() {
                    if lhs.id == matrix || rhs.id == matrix {
                        return None;
                    }
                    continue;
                }
                if lhs.id == matrix {
                    return Some(if lhs.transposed {
                        PartitionScheme::Col
                    } else {
                        PartitionScheme::Row
                    });
                }
                if rhs.id == matrix {
                    return Some(if rhs.transposed {
                        PartitionScheme::Row
                    } else {
                        PartitionScheme::Col
                    });
                }
            } else if op.kind.inputs().iter().any(|r| r.id == matrix) {
                return None;
            }
        }
        None
    }

    /// Plan a single operator: price candidates, commit the argmin.
    fn plan_operator(&mut self, op_idx: usize) -> Result<()> {
        let op = &self.program.ops()[op_idx];
        let kind = op.kind.clone();
        let phase = op.phase;
        let inputs = kind.inputs();
        let cands = candidates(&kind);
        debug_assert!(!cands.is_empty());

        let out_bytes = op.out_matrix.map(|m| self.bytes_of_matrix(m)).unwrap_or(0);

        // Equation 1: argmin over candidates (or the forced choice).
        let mut priced: Vec<(u64, &Candidate)> = Vec::with_capacity(cands.len());
        for cand in &cands {
            let mut c = self.cost.output_cost(cand.strategy, out_bytes);
            for (r, req) in inputs.iter().zip(&cand.inputs) {
                c += self.probe_cost(r, *req);
            }
            priced.push((c, cand));
        }
        if let Some(&choice) = self.forced.get(&op_idx) {
            let cand = cands[choice.min(cands.len() - 1)].clone();
            self.estimated_comm += self.cost.output_cost(cand.strategy, out_bytes);
            return self.commit_operator(
                op_idx,
                cand,
                phase,
                &inputs,
                op.out_matrix,
                op.out_scalar,
            );
        }
        let best_cost = priced.iter().map(|(c, _)| *c).min().expect("non-empty");
        let mut cand = priced
            .iter()
            .find(|(c, _)| *c == best_cost)
            .map(|(_, cand)| (*cand).clone())
            .expect("non-empty candidates");

        // Heuristic 2 (Re-assignment), RMM-tie half: "when multiplying two
        // matrices with the same size, like B·Bᵀ, RMM1 and RMM2 can
        // generate [the] result with different partition scheme while
        // introducing the same amount of communication cost" — the output
        // event has multiple values {r|c}, so pick the one the next
        // consumer of this output wants for free.
        if self.cfg.exploit_dependencies {
            let rmm1 = priced.iter().find(|(_, c)| c.strategy == Strategy::Rmm1);
            let rmm2 = priced.iter().find(|(_, c)| c.strategy == Strategy::Rmm2);
            if let (Some((c1, k1)), Some((c2, k2))) = (rmm1, rmm2) {
                if *c1 == best_cost && *c2 == best_cost {
                    if let Some(m) = op.out_matrix {
                        match self.next_consumer_preference(op_idx, m) {
                            Some(PartitionScheme::Row) => cand = (*k2).clone(),
                            Some(PartitionScheme::Col) => cand = (*k1).clone(),
                            _ => {}
                        }
                    }
                }
            }
        }
        self.estimated_comm += self.cost.output_cost(cand.strategy, out_bytes);
        self.commit_operator(op_idx, cand, phase, &inputs, op.out_matrix, op.out_scalar)
    }

    /// Acquire the chosen candidate's inputs, create its output node, and
    /// emit the compute step. (Output-event cost was already added.)
    fn commit_operator(
        &mut self,
        op_idx: usize,
        cand: Candidate,
        phase: usize,
        inputs: &[MatrixRef],
        out_matrix: Option<MatrixId>,
        out_scalar: Option<dmac_lang::ScalarId>,
    ) -> Result<()> {
        // Commit: acquire every input.
        let mut input_nodes = Vec::with_capacity(inputs.len());
        for (r, req) in inputs.iter().zip(&cand.inputs) {
            input_nodes.push(self.acquire(r, *req, phase)?);
        }

        // Create the output node.
        let out_node = match (&cand.output, out_matrix) {
            (OutScheme::Scalar, _) | (_, None) => None,
            (OutScheme::Fixed(s), Some(m)) => {
                let scheme = if self.cfg.exploit_dependencies {
                    *s
                } else {
                    // SystemML-S stores every operator result back into the
                    // hash-partitioned cache.
                    PartitionScheme::Hash
                };
                Some(self.plan.add_node(m, scheme, false))
            }
            (OutScheme::FlexibleRc, Some(m)) => {
                if self.cfg.exploit_dependencies {
                    Some(self.plan.add_node(m, PartitionScheme::Row, true))
                } else {
                    Some(self.plan.add_node(m, PartitionScheme::Hash, false))
                }
            }
            (OutScheme::SameAsInput, Some(m)) => {
                // The output *value* is the operator applied to the input as
                // its operand reads it — through a view, in the flipped
                // scheme — and takes that placement.
                let scheme = self.plan.scheme_of(input_nodes[0]);
                Some(self.plan.add_node(m, scheme, false))
            }
        };
        if let Some(n) = out_node {
            self.register(n);
        }

        // The compute step's predicted bytes are its output event's cost
        // (N·|AB| for CPMM, 0 otherwise) — mirrors the `estimated_comm`
        // increment the caller already applied.
        let out_bytes = out_matrix.map(|m| self.bytes_of_matrix(m)).unwrap_or(0);
        let predicted = self.cost.output_cost(cand.strategy, out_bytes);
        self.plan.push_step(
            PlanStep::Compute {
                op: op_idx,
                strategy: cand.strategy,
                inputs: input_nodes,
                out: out_node,
                out_scalar,
                phase,
            },
            predicted,
        );
        Ok(())
    }

    /// Bind every program output to a node holding its matrix; one the
    /// program reads transposed is transposed at the fetch and store
    /// boundary, not by a step.
    fn bind_outputs(&mut self) -> Result<()> {
        for (r, name) in self.program.outputs().to_vec() {
            let n = self.any_node(&r)?;
            self.plan.outputs.push((n, r.id, name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use dmac_lang::Program;

    fn schemes() -> HashMap<MatrixId, PartitionScheme> {
        HashMap::new()
    }

    /// One GNMF H-update (Code 1 line 9).
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
    fn dmac_plans_cost_no_more_than_systemml() {
        let p = gnmf_h();
        let dmac = plan_program(&p, &PlannerConfig::default(), 4, &schemes()).unwrap();
        let sysml = plan_program(&p, &PlannerConfig::systemml_s(), 4, &schemes()).unwrap();
        assert!(
            dmac.estimated_comm <= sysml.estimated_comm,
            "dmac {} > sysml {}",
            dmac.estimated_comm,
            sysml.estimated_comm
        );
        assert!(
            dmac.plan.comm_step_count() < sysml.plan.comm_step_count(),
            "dmac should need fewer communication steps"
        );
    }

    #[test]
    fn cellwise_chain_reuses_schemes_for_free() {
        // X = (A + B) * (A + B) pattern: the second op must reuse the
        // first's scheme with zero extra comm steps.
        let mut p = Program::new();
        let a = p.load("A", 100, 100, 0.5);
        let b = p.load("B", 100, 100, 0.5);
        let s = p.add(a, b).unwrap();
        let t = p.cell_mul(s, s).unwrap();
        let u = p.cell_div(t, s).unwrap();
        p.output(u);
        let planned = plan_program(&p, &PlannerConfig::default(), 4, &schemes()).unwrap();
        // exactly two partitions (A and B once each), nothing else.
        assert_eq!(
            planned.plan.comm_step_count(),
            2,
            "{}",
            planned.plan.explain(&p)
        );
    }

    #[test]
    fn transpose_dependency_is_free() {
        // B = A + A; C = Bᵀ * Bᵀ (cell-wise). The Bᵀ operands are views
        // of B, not a repartition — and no step.
        let mut p = Program::new();
        let a = p.load("A", 50, 40, 1.0);
        let b = p.add(a, a).unwrap();
        let c = p.cell_mul(b.t(), b.t()).unwrap();
        p.output(c);
        let planned = plan_program(&p, &PlannerConfig::default(), 4, &schemes()).unwrap();
        // one partition for A; everything downstream free.
        assert_eq!(
            planned.plan.comm_step_count(),
            1,
            "{}",
            planned.plan.explain(&p)
        );
        let views = planned.plan.steps.iter().flat_map(|s| s.operands());
        assert_eq!(views.filter(|o| o.transposed).count(), 2);
    }

    #[test]
    fn systemml_repartitions_every_use() {
        let mut p = Program::new();
        let a = p.load("A", 100, 100, 1.0);
        let b = p.add(a, a).unwrap();
        let c = p.cell_mul(b, b).unwrap();
        p.output(c);
        let planned = plan_program(&p, &PlannerConfig::systemml_s(), 4, &schemes()).unwrap();
        // op1: two partitions of A (same ref twice); op2: two partitions
        // of B. SystemML-S never reuses.
        assert_eq!(
            planned.plan.comm_step_count(),
            4,
            "{}",
            planned.plan.explain(&p)
        );
    }

    #[test]
    fn systemml_baseline_differs_only_in_the_dependency_switch() {
        // Paper §6.1 / DESIGN §2: SystemML-S is DMac "without utilizing
        // matrix dependency" — same strategies, same fused local engine.
        let s = PlannerConfig::systemml_s();
        assert!(!s.exploit_dependencies);
        assert_eq!(
            PlannerConfig {
                exploit_dependencies: true,
                ..s
            },
            PlannerConfig::default()
        );

        // Unary operators read their input in place, so `scale → + scalar`
        // has no repartition between its members even without dependency
        // tracking (the `+` before it is rehashed into the cache and stays
        // a plain step); 1536² at block 256 is a 36-block grid, over the
        // gate.
        let mut p = Program::new();
        let a = p.load("A", 1536, 1536, 1.0);
        let b = p.load("B", 1536, 1536, 1.0);
        let sum = p.add(a, b).unwrap();
        let half = p.scale_const(sum, 0.5).unwrap();
        let out = p.add_scalar(half, dmac_lang::ScalarExpr::c(1.0)).unwrap();
        p.output(out);
        let planned = plan_program(&p, &s, 4, &schemes()).unwrap();
        assert!(
            planned
                .plan
                .steps
                .iter()
                .any(|st| matches!(st, PlanStep::Fused { ops, .. } if ops.len() == 2)),
            "{}",
            planned.plan.explain(&p)
        );
    }

    #[test]
    fn small_matmul_broadcasts_small_side() {
        // tiny W (20x20) times large H (20x10000): RMM1 broadcasting the
        // tiny left side must win.
        let mut p = Program::new();
        let w = p.load("W", 20, 20, 1.0);
        let h = p.load("H", 20, 10000, 1.0);
        let x = p.matmul(w, h).unwrap();
        p.output(x);
        let planned = plan_program(&p, &PlannerConfig::default(), 4, &schemes()).unwrap();
        let strategies: Vec<Strategy> = planned
            .plan
            .steps
            .iter()
            .filter_map(|s| match s {
                PlanStep::Compute { strategy, .. } => Some(*strategy),
                _ => None,
            })
            .collect();
        assert_eq!(
            strategies,
            vec![Strategy::Rmm1],
            "{}",
            planned.plan.explain(&p)
        );
    }

    #[test]
    fn reassignment_pins_cpmm_output_to_consumer() {
        // X = Aᵀ %*% A (CPMM wins: both sides large, output tiny)…
        // then Y = X * X cell-wise. H2 should pin X's scheme so the
        // cell-wise op is free.
        let mut p = Program::new();
        let a = p.load("A", 5000, 30, 1.0);
        let x = p.matmul(a.t(), a).unwrap();
        let y = p.cell_mul(x, x).unwrap();
        p.output(y);
        let planned = plan_program(&p, &PlannerConfig::default(), 4, &schemes()).unwrap();
        // comm: one partition of A (the other side is free via transpose)
        // + the CPMM output shuffle. The cell-wise op adds nothing.
        let explain = planned.plan.explain(&p);
        assert!(
            planned.plan.steps.iter().any(|s| matches!(
                s,
                PlanStep::Compute {
                    strategy: Strategy::Cpmm,
                    ..
                }
            )),
            "{explain}"
        );
        assert_eq!(planned.plan.comm_step_count(), 2, "{explain}");
        assert!(planned.plan.nodes.iter().all(|n| !n.flexible));
    }

    #[test]
    fn reassignment_pins_cpmm_output_then_views_it() {
        // X = Aᵀ %*% A is a flexible CPMM output; its first reader wants
        // Xᵀ, so Heuristic 2 pins X to the flipped scheme and a view
        // serves the read: no byte moves for X beyond the CPMM shuffle,
        // and no step copies it.
        let mut p = Program::new();
        let a = p.load("A", 5000, 30, 1.0);
        let b = p.load("B", 30, 30, 1.0);
        let x = p.matmul(a.t(), a).unwrap();
        let y = p.cell_mul(x.t(), b).unwrap();
        p.output(y);
        let planned = plan_program(&p, &PlannerConfig::default(), 4, &schemes()).unwrap();
        let plan = &planned.plan;
        let explain = plan.explain(&p);
        let (cpmm, x_node) = (plan.steps.iter().enumerate())
            .find_map(|(i, s)| match s {
                PlanStep::Compute {
                    strategy: Strategy::Cpmm,
                    out: Some(o),
                    ..
                } => Some((i, *o)),
                _ => None,
            })
            .expect(&explain);
        let view = Operand {
            node: x_node,
            transposed: true,
        };
        let reader = (plan.steps[cpmm..].iter()).find(|s| s.operands().contains(&view));
        assert!(reader.is_some(), "{explain}");
        assert_eq!(
            plan.nodes.iter().filter(|n| n.matrix == x.id).count(),
            1,
            "{explain}"
        );
        let x_moves = plan
            .steps
            .iter()
            .filter(|s| s.is_comm() && s.out_node().is_some_and(|o| plan.nodes[o].matrix == x.id));
        assert_eq!(
            x_moves.count(),
            1,
            "only the CPMM shuffle moves X\n{explain}"
        );
        assert!(plan.nodes.iter().all(|n| !n.flexible));
    }

    /// `S = A + B; M = A %*% (C · sum(S))`: the multiply reads the add's
    /// result, so even multiplication-first order plans the add first and
    /// partitions `A` for it; then `A` is the small side of a product with
    /// huge `C`, which wants `A(b)`.
    fn pull_up_program() -> (Program, MatrixId) {
        let mut p = Program::new();
        let a = p.load("A", 40, 40, 1.0);
        let b = p.load("B", 40, 40, 1.0);
        let c = p.load("C", 40, 100_000, 1.0);
        let s = p.add(a, b).unwrap();
        let total = p.sum(s).unwrap();
        let scaled = p.scale(c, total).unwrap();
        let m = p.matmul(a, scaled).unwrap();
        p.output(m);
        (p, a.id)
    }

    #[test]
    fn pull_up_rewrites_partition_into_broadcast() {
        // H1 must rewrite the add's partition of A into broadcast+extract.
        let (p, a_id) = pull_up_program();
        let planned = plan_program(&p, &PlannerConfig::default(), 4, &schemes()).unwrap();
        let plan = &planned.plan;
        let explain = plan.explain(&p);
        let of_a = |s: &PlanStep| s.out_node().is_some_and(|o| plan.nodes[o].matrix == a_id);
        // A must be broadcast exactly once and never partitioned.
        let partitions_of_a = (plan.steps.iter())
            .filter(|s| matches!(s, PlanStep::Partition { .. }) && of_a(s))
            .count();
        let broadcasts: Vec<usize> = (plan.steps.iter().enumerate())
            .filter(|(_, s)| matches!(s, PlanStep::Broadcast { .. }) && of_a(s))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(partitions_of_a, 0, "{explain}");
        assert_eq!(broadcasts.len(), 1, "{explain}");
        // and the extract that replaced the partition exists
        assert!(
            plan.steps
                .iter()
                .any(|s| matches!(s, PlanStep::Extract { .. })),
            "{explain}"
        );
        // A moves N·|A| in its one broadcast, B |B| in its partition, C
        // |C| into Column for RMM1; nothing else moves.
        let (a, c) = (8 * 40 * 40, 8 * 40 * 100_000);
        assert_eq!(plan.predicted_bytes(broadcasts[0]), 4 * a, "{explain}");
        assert_eq!(planned.estimated_comm, 4 * a + a + c, "{explain}");
    }

    #[test]
    fn initial_schemes_are_honoured() {
        // If V is already Column-partitioned from a previous run, using it
        // under Column must be free.
        let mut p = Program::new();
        let v = p.load("V", 100, 100, 1.0);
        let w = p.load("W", 100, 100, 1.0);
        let x = p.cell_mul(v, w).unwrap();
        p.output(x);
        let mut init = HashMap::new();
        init.insert(v.id, PartitionScheme::Col);
        init.insert(w.id, PartitionScheme::Col);
        let planned = plan_program(&p, &PlannerConfig::default(), 4, &init).unwrap();
        assert_eq!(
            planned.plan.comm_step_count(),
            0,
            "{}",
            planned.plan.explain(&p)
        );
        assert_eq!(planned.estimated_comm, 0);
    }

    #[test]
    fn unary_and_reduce_are_free() {
        let mut p = Program::new();
        let a = p.load("A", 64, 64, 1.0);
        let s = p.scale_const(a, 0.5).unwrap();
        let total = p.sum(s).unwrap();
        let b = p.scale(s, total).unwrap();
        p.output(b);
        let planned = plan_program(&p, &PlannerConfig::default(), 4, &schemes()).unwrap();
        assert_eq!(
            planned.plan.comm_step_count(),
            0,
            "{}",
            planned.plan.explain(&p)
        );
    }

    #[test]
    fn per_step_predictions_sum_to_estimate() {
        // The flight recorder diffs per-step predictions against actuals;
        // the predictions must tile the planner's total estimate exactly,
        // under both configs and through the pull-up-broadcast rewrite.
        let progs: Vec<Program> = vec![gnmf_h(), pull_up_program().0];
        for p in &progs {
            for cfg in [PlannerConfig::default(), PlannerConfig::systemml_s()] {
                let planned = plan_program(p, &cfg, 4, &schemes()).unwrap();
                assert_eq!(planned.plan.predicted.len(), planned.plan.steps.len());
                assert_eq!(
                    planned.plan.predicted_total(),
                    planned.estimated_comm,
                    "{}",
                    planned.plan.explain(p)
                );
                for (i, step) in planned.plan.steps.iter().enumerate() {
                    if !step.is_comm() {
                        assert_eq!(planned.plan.predicted_bytes(i), 0, "step {i} is comm-free");
                    }
                }
            }
        }
    }

    #[test]
    fn outputs_bound_for_transposed_refs() {
        let mut p = Program::new();
        let a = p.load("A", 10, 20, 1.0);
        let b = p.add(a, a).unwrap();
        p.output(b.t());
        let planned = plan_program(&p, &PlannerConfig::default(), 2, &schemes()).unwrap();
        assert_eq!(planned.plan.outputs.len(), 1);
        let (node, mid, _) = &planned.plan.outputs[0];
        assert_eq!(*mid, b.id);
        // The node holds `B`; the output is transposed at the boundary.
        assert_eq!(planned.plan.nodes[*node].matrix, b.id);
        assert_eq!(planned.plan.steps.len(), 2, "{:?}", planned.plan.steps);
    }

    /// GNMF's W-update over the fusion gate: the fused update folds
    /// `V Hᵀ` and `W·(H Hᵀ)`, both RMM2, into its step, which moves the
    /// bytes and certifies no more than the plan that materialises them.
    #[test]
    fn products_fold_into_their_update_at_no_higher_peak() {
        let cfg = PlannerConfig {
            fusion_block: 32,
            ..PlannerConfig::default()
        };
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
        let profiles = propagate(&p, &cfg, &HashMap::new());
        let greedy = || Planner::greedy(&p, &cfg, 4, &HashMap::new(), &profiles, None, &[]);
        let planned = greedy().unwrap().finish();
        let text = planned.plan.explain(&p);
        let folded = (planned.plan.steps.iter()).find_map(|st| match st {
            PlanStep::Fused { products, .. } if !products.is_empty() => Some(products),
            _ => None,
        });
        let strategies: Vec<Strategy> = folded.expect(&text).iter().map(|q| q.strategy).collect();
        assert_eq!(strategies, [Strategy::Rmm2, Strategy::Rmm2], "{text}");
        let MatrixOrigin::Op(op) = p.decl(vht.id).unwrap().origin else {
            unreachable!("a product")
        };
        assert_eq!(planned.plan.strategy_of(op), Some(Strategy::Rmm2));

        let g = greedy().unwrap();
        let mut without = g.plan;
        without.finalize_flexible();
        fuse_cell_chains(&p, &mut without, 32, false);
        let without = certify(&p, without, &profiles, 32, g.estimated_comm);
        assert_eq!(planned.estimated_comm, without.estimated_comm);
        assert_eq!(
            planned.plan.predicted_total(),
            without.plan.predicted_total()
        );
        assert!(
            planned.plan.steps.len() < without.plan.steps.len(),
            "{text}"
        );
        assert!(
            planned.certificate.peak <= without.certificate.peak,
            "{text}"
        );
    }

    /// The all-`random` H-update of a serve-shaped GNMF (160 × 96, rank
    /// 8) placed `V → c`, `W → b`, `H → c` moves 2 048 B. `Wᵀ V` reads
    /// `Wᵀ(b)` as a view of `W(b)`, and `Wᵀ W` reads `Wᵀ(r)` as a view of
    /// the extract `W(c)` (Extract-Transpose): no step transposes `W`, and
    /// the finish has nothing to rebuild.
    #[test]
    fn a_view_holds_no_copy_to_give_back() {
        use PartitionScheme::{Broadcast, Col};
        let cfg = PlannerConfig {
            fusion_block: 16,
            ..PlannerConfig::default()
        };
        let mut p = Program::new();
        let v = p.random("V", 160, 96);
        let w = p.random("W", 160, 8);
        let h0 = p.random("H", 8, 96);
        let wt_v = p.matmul(w.t(), v).unwrap();
        let wt_w = p.matmul(w.t(), w).unwrap();
        let wt_w_h = p.matmul(wt_w, h0).unwrap();
        let h_num = p.cell_mul(h0, wt_v).unwrap();
        let h = p.cell_div(h_num, wt_w_h).unwrap();
        p.output(h);
        let profiles = propagate(&p, &cfg, &HashMap::new());
        let place = [(v.id, Col), (w.id, Broadcast), (h0.id, Col)];
        let g = Planner::greedy(&p, &cfg, 4, &HashMap::new(), &profiles, None, &place).unwrap();
        let mut plain = g.plan.clone();
        plain.finalize_flexible();
        fuse_cell_chains(&p, &mut plain, 16, true);
        let lean = g.finish();
        assert_eq!(lean.estimated_comm, 2048);
        assert_eq!(lean.plan.steps, plain.steps, "{}", lean.plan.explain(&p));
        let plan = &lean.plan;
        let made = plan
            .steps
            .iter()
            .filter_map(|st| st.out_node().map(|o| (st, o)));
        for (st, o) in made.filter(|&(_, o)| plan.nodes[o].matrix == w.id) {
            assert!(matches!(st, PlanStep::Extract { .. }), "{o}: {st:?}");
        }
        let views = plan.steps.iter().flat_map(|st| st.operands());
        let of_w = |o: &Operand| o.transposed && plan.nodes[o.node].matrix == w.id;
        assert_eq!(views.filter(of_w).count(), 2, "{}", plan.explain(&p));
    }
}
