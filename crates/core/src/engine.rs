//! Plan execution on the simulated cluster (paper §5.2–§5.3).
//!
//! The engine walks the staged plan in order, mapping each step onto the
//! cluster primitives of `dmac-cluster`:
//!
//! | plan step | runtime |
//! |---|---|
//! | `partition` | metered all-to-all shuffle |
//! | `broadcast` | metered one-to-all replication |
//! | `extract` | local (free) |
//! | `compute` RMM1/RMM2 | communication-free local multiply |
//! | `compute` CPMM | per-worker partials + metered output shuffle |
//! | `compute` cell-wise / unary / fused | one scheme-aligned per-tile program ([`Cluster::cells`]) |
//! | `compute` reduce | local partials + driver combine |
//!
//! A view goes to its primitive as the held value and its bit ([`View`]);
//! a reduction reads the held value (sums and norms are transpose-free).
//!
//! Every primitive records a span carrying what it moved and what it
//! cost; the engine keeps each step's spans and folds them once, into the
//! step's trace, its *phase*'s (iteration tag's) bytes and seconds — the
//! per-iteration accumulated curves of Figure 6 — and the run's
//! communication totals.
//!
//! ## Fault tolerance
//!
//! Every step executes under an attempt loop. When a step fails with
//! [`WorkerLost`](dmac_cluster::ClusterError::WorkerLost) — whether the
//! host died at a stage boundary, at primitive entry, or mid-replay — the
//! engine hands the failure to [`crate::recovery`]: the host is
//! decommissioned, lost state is rebuilt through plan lineage, and the
//! step is re-executed, all without caller intervention. Each loss
//! consumes one attempt from the [`RecoveryPolicy`] budget; exhausting it
//! surfaces the typed [`CoreError::RecoveryExhausted`]. The bytes and
//! simulated seconds spent on failed attempts and recovery — the spans
//! flagged as recovery — are excluded from the per-phase curves and
//! reported separately in [`ExecReport::recovery`] (they *are* included in
//! the report's total clock and ledger — failures cost real time).

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use dmac_cluster::cluster::ReduceKind;
use dmac_cluster::dist::GridMeta;
use dmac_cluster::jsonin::Json;
use dmac_cluster::{
    Cluster, ClusterError, CommStats, DistMatrix, OpSpan, PartitionScheme, Rmm, SimClock, View,
};
use dmac_lang::{BinOp, MatrixId, MatrixOrigin, OpKind, Program, ReduceOp, ScalarId, UnaryOp};
use dmac_matrix::FusedOp;

use crate::error::{CoreError, Result};
use crate::liveness;
use crate::plan::{Plan, PlanStep};
use crate::recovery::{self, RecoveryPolicy, RecoveryStats};
use crate::stage;
use crate::strategy::Strategy;
use crate::trace::{StepTrace, Trace};

/// Per-phase (per-iteration) statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Measured local compute seconds (max-across-workers per step, summed).
    pub compute_sec: f64,
    /// Modelled network seconds.
    pub comm_sec: f64,
    /// Shuffle traffic in bytes.
    pub shuffle_bytes: u64,
    /// Broadcast traffic in bytes.
    pub broadcast_bytes: u64,
}

impl PhaseStats {
    /// Total simulated time of the phase.
    pub fn total_sec(&self) -> f64 {
        self.compute_sec + self.comm_sec
    }

    /// Total bytes moved in the phase.
    pub fn total_bytes(&self) -> u64 {
        self.shuffle_bytes + self.broadcast_bytes
    }
}

/// The result of executing a plan.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Communication totals of the run, folded from its spans.
    pub comm: CommStats,
    /// Simulated clock: measured compute + modelled network time
    /// (including time lost to failures and recovery).
    pub sim: SimClock,
    /// Real wall-clock seconds the simulation took (all workers run
    /// sequentially in-process, so this exceeds `sim` on multi-worker
    /// configs).
    pub wall_sec: f64,
    /// Statistics per phase tag (index = phase); failure/recovery costs
    /// are excluded (see [`ExecReport::recovery`]).
    pub per_phase: Vec<PhaseStats>,
    /// Number of stages the plan was scheduled into.
    pub stage_count: usize,
    /// The planner's own communication estimate (cost-model units).
    pub planner_estimate: u64,
    /// What worker failures cost this run (zeroes on a healthy run).
    pub recovery: RecoveryStats,
    /// The flight-recorder trace: per-step spans, predicted vs actual
    /// cost-model bytes, per-worker traffic, buffer-pool counters.
    pub trace: Trace,
}

impl ExecReport {
    /// Simulated execution time (the paper's reported "execution time").
    pub fn sim_time_sec(&self) -> f64 {
        self.sim.total_sec()
    }

    /// The report as a JSON document: totals, per-phase series, recovery
    /// and buffer-pool counters, and the trace's byte totals. Carried by
    /// the `dmac-serve` `result` and `stats` responses as it is built.
    pub fn doc(&self) -> Json {
        let phases = self.per_phase.iter().map(|p| {
            Json::object([
                ("compute_sec", p.compute_sec.into()),
                ("comm_sec", p.comm_sec.into()),
                ("shuffle_bytes", p.shuffle_bytes.into()),
                ("broadcast_bytes", p.broadcast_bytes.into()),
            ])
        });
        let step_nnz = self.trace.steps.iter().map(|s| {
            Json::object([
                ("step", (s.step as u64).into()),
                ("predicted_nnz", s.predicted_nnz.into()),
                ("observed_nnz", s.observed_nnz.into()),
                ("density_class", s.density_class.into()),
                ("resident_bytes", s.resident_bytes.into()),
            ])
        });
        let (recovery, trace, pool) = (&self.recovery, &self.trace, &self.trace.pool);
        Json::object([
            ("sim_sec", self.sim.total_sec().into()),
            ("compute_sec", self.sim.compute_sec().into()),
            ("comm_sec", self.sim.comm_sec().into()),
            ("wall_sec", self.wall_sec.into()),
            ("stage_count", (self.stage_count as u64).into()),
            ("planner_estimate", self.planner_estimate.into()),
            ("shuffle_bytes", self.comm.shuffle_bytes().into()),
            ("broadcast_bytes", self.comm.broadcast_bytes().into()),
            ("recovery_bytes", self.comm.recovery_bytes().into()),
            ("retry_bytes", self.comm.retry_bytes().into()),
            ("per_phase", Json::Arr(phases.collect())),
            (
                "recovery",
                Json::object([
                    ("worker_failures", (recovery.worker_failures as u64).into()),
                    ("recovery_rounds", (recovery.recovery_rounds as u64).into()),
                    ("recovery_bytes", recovery.recovery_bytes.into()),
                    ("recovery_sec", recovery.recovery_sec.into()),
                ]),
            ),
            (
                "trace",
                Json::object([
                    ("steps", (trace.steps.len() as u64).into()),
                    ("predicted_bytes", trace.predicted_total().into()),
                    ("actual_bytes", trace.actual_total().into()),
                    ("wire_bytes", trace.wire_total().into()),
                    ("transport_bytes", trace.transport_total().into()),
                    ("recovery_wire_bytes", trace.recovery_wire_total().into()),
                    ("predicted_nnz", trace.predicted_nnz_total().into()),
                    ("observed_nnz", trace.observed_nnz_total().into()),
                    ("spills", trace.spill.spills.into()),
                    ("spill_bytes", trace.spill.spill_bytes.into()),
                    ("loads", trace.spill.loads.into()),
                    ("load_bytes", trace.spill.load_bytes.into()),
                    ("peak_resident_bytes", trace.peak_resident().into()),
                ]),
            ),
            ("step_nnz", Json::Arr(step_nnz.collect())),
            (
                "pool",
                Json::object([
                    ("reused", (pool.reused as u64).into()),
                    ("allocated", (pool.allocated as u64).into()),
                    ("returned", (pool.returned as u64).into()),
                    ("dropped", (pool.dropped as u64).into()),
                ]),
            ),
        ])
    }

    /// The report's document ([`ExecReport::doc`]) as JSON text, members
    /// in key order. Used by the bench bins and the repo benchmark.
    pub fn to_json(&self) -> String {
        self.doc().to_string()
    }
}

/// Everything a run produces besides the report.
#[derive(Debug, Default)]
pub struct RunOutputs {
    /// Values of output nodes, keyed by program matrix id.
    pub matrices: HashMap<MatrixId, DistMatrix>,
    /// Values to persist into the session environment, keyed by name.
    pub stored: BTreeMap<String, DistMatrix>,
    /// All reduction results.
    pub scalars: HashMap<ScalarId, f64>,
    /// Best materialised placement of each *load* input (Spark-style RDD
    /// caching): if a source was repartitioned to a Row/Column scheme
    /// during the run, the session keeps that copy so later programs
    /// start from it (the cross-program half of dependency exploitation).
    pub cached_inputs: BTreeMap<MatrixId, DistMatrix>,
}

/// The cells of `random` sources, at the path the engine's callers
/// reproduce them from.
pub use dmac_matrix::random_cell;

/// Everything immutable a run (and its recovery) needs: the program, the
/// plan, durable input bindings, and the lineage maps derived from the
/// plan (which step produces each node; which nodes are sources).
pub(crate) struct ExecCtx<'a> {
    pub program: &'a Program,
    pub plan: &'a Plan,
    pub bindings: &'a HashMap<MatrixId, DistMatrix>,
    pub block_size: usize,
    pub seed: u64,
    /// `producer[node]` = index of the plan step producing `node`
    /// (`None` for source nodes).
    pub producer: Vec<Option<usize>>,
    /// Source node → matrix id (durable lineage roots).
    pub sources: HashMap<usize, MatrixId>,
    /// Stage of each step (for recovery's re-executed-stage accounting).
    pub step_stage: Vec<usize>,
    /// `released_at[node]` = index of the plan step releasing `node`
    /// (`None` for a node the run keeps).
    pub released_at: Vec<Option<usize>>,
}

/// Materialise a source node: clone its durable binding (`load`) or
/// regenerate it from the recorded seed (`random`, [`Cluster::random`]).
/// During recovery the re-read of a binding is metered as
/// [`CommKind::Recovery`] (dmac_cluster) traffic — durable storage is
/// remote; regeneration is free on both backends, since a mirror's
/// workers make a random source's tiles themselves.
pub(crate) fn seed_source(
    cluster: &mut Cluster,
    ctx: &ExecCtx<'_>,
    node: usize,
    mid: MatrixId,
    recovering: bool,
) -> Result<DistMatrix> {
    let decl = ctx.program.decl(mid)?;
    let dist = match decl.origin {
        MatrixOrigin::Load => {
            let d = ctx
                .bindings
                .get(&mid)
                .cloned()
                .ok_or_else(|| CoreError::Unbound(decl.name.clone()))?;
            if recovering {
                cluster.charge_recovery(format!("refetch({})", decl.name), d.logical_bytes())?;
            }
            d
        }
        MatrixOrigin::Random => {
            let meta = GridMeta::new(decl.stats.rows, decl.stats.cols, ctx.block_size);
            cluster.random(meta, ctx.plan.nodes[node].scheme, ctx.seed, mid)?
        }
        MatrixOrigin::Op(_) => {
            return Err(CoreError::Engine(format!(
                "source node for op-produced matrix {mid}"
            )))
        }
    };
    if dist.rows() != decl.stats.rows || dist.cols() != decl.stats.cols {
        return Err(CoreError::Engine(format!(
            "binding for '{}' is {}x{}, declared {}x{}",
            decl.name,
            dist.rows(),
            dist.cols(),
            decl.stats.rows,
            decl.stats.cols
        )));
    }
    Ok(dist)
}

/// Queue the mirror's release of the value `rid` names, which `node` no
/// longer holds — unless another live node still names it (a no-op move
/// returns its input) or it is a durable binding the session still owns.
fn release(
    cluster: &mut Cluster,
    ctx: &ExecCtx<'_>,
    values: &[Option<DistMatrix>],
    node: usize,
    rid: u64,
) -> Result<()> {
    let aliased = values.iter().flatten().any(|x| x.rid() == rid);
    let bound_source = ctx
        .sources
        .get(&node)
        .is_some_and(|mid| ctx.bindings.contains_key(mid));
    if !aliased && !bound_source {
        cluster.free(rid)?;
    }
    Ok(())
}

/// Execute one plan step against the current values. The inputs it
/// consumes — `consumes`: [`Releases::consumes`](crate::plan::Releases)
/// on the plan's own pass, none on a lineage replay, whose inputs other
/// replays may still read — leave `values` once its primitive is admitted
/// ([`Cluster::admit`]) — the primitive then holds the engine's only
/// handle and drops each input tile once the output tile made from it
/// exists — and their mirror release is queued once it has succeeded. A
/// loss caught at entry therefore leaves every input where it was. Every
/// other state change is only made on success; a consumed input lost to a
/// failure inside the primitive is rebuilt through lineage by
/// [`recovery::recover`], like any damaged input of the resumed step.
pub(crate) fn exec_step(
    cluster: &mut Cluster,
    ctx: &ExecCtx<'_>,
    step_idx: usize,
    consumes: &[usize],
    values: &mut [Option<DistMatrix>],
    scalars: &mut HashMap<ScalarId, f64>,
) -> Result<()> {
    let plan = ctx.plan;
    let step = &plan.steps[step_idx];
    let operands = step
        .operands()
        .into_iter()
        .map(|o| {
            let n = o.node;
            let m = values[n]
                .clone()
                .ok_or_else(|| CoreError::Engine(format!("node {n} used before definition")))?;
            Ok(View {
                m,
                transposed: o.transposed,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    if !consumes.is_empty() {
        cluster.admit(entry_op(ctx.program, step)?)?;
    }
    let consumed: Vec<(usize, u64)> = consumes
        .iter()
        .filter_map(|&n| values[n].take().map(|m| (n, m.rid())))
        .collect();
    let out = match step {
        PlanStep::Partition { out, .. } => {
            let target = plan.nodes[*out].scheme;
            let label = format!("m{}", plan.nodes[*out].matrix);
            Some((*out, cluster.repartition(sole(operands), target, &label)?))
        }
        PlanStep::Broadcast { out, .. } => {
            let label = format!("m{}", plan.nodes[*out].matrix);
            Some((*out, cluster.broadcast(sole(operands), &label)?))
        }
        PlanStep::Extract { out, .. } => {
            let target = plan.nodes[*out].scheme;
            Some((*out, cluster.extract(sole(operands), target)?))
        }
        PlanStep::Compute {
            op,
            strategy,
            out,
            out_scalar,
            ..
        } => {
            let operator = &ctx.program.ops()[*op];
            let declared = out.map(|n| plan.nodes[n].scheme);
            match run_compute(
                cluster,
                &operator.kind,
                *strategy,
                operands,
                declared,
                scalars,
            )? {
                ComputeResult::Matrix(mut m) => {
                    let node = *out.as_ref().ok_or_else(|| {
                        CoreError::Engine(format!("operator {op} produced an unexpected matrix"))
                    })?;
                    // SystemML-S stores results back into the hash
                    // cache; reconcile the physical scheme with the
                    // plan node's declared scheme.
                    if plan.nodes[node].scheme == PartitionScheme::Hash
                        && m.scheme() != PartitionScheme::Hash
                    {
                        m = cluster.rehash(m)?;
                    }
                    Some((node, m))
                }
                ComputeResult::Scalar(v) => {
                    let sid = out_scalar.ok_or_else(|| {
                        CoreError::Engine(format!("operator {op} produced an unexpected scalar"))
                    })?;
                    scalars.insert(sid, v);
                    None
                }
            }
        }
        PlanStep::Fused {
            ops,
            prog,
            inputs,
            products,
            out,
            ..
        } => {
            // Resolve the symbolic scalar expressions now (the plan keeps
            // them symbolic so lineage replay re-reads the live values).
            let scalar_env = |id: ScalarId| -> f64 { *scalars.get(&id).unwrap_or(&f64::NAN) };
            let kernel: Vec<FusedOp> = prog
                .iter()
                .map(|instr| instr.map_scalar(|e| e.eval(&scalar_env)))
                .collect();
            // The span label names the subsumed operators.
            let subsumed: Vec<&str> = ops
                .iter()
                .map(|&o| match &ctx.program.ops()[o].kind {
                    OpKind::Binary { op, .. } => op.name(),
                    OpKind::Unary { op, .. } => op.name(),
                    OpKind::Reduce { .. } => "reduce",
                })
                .collect();
            let label = subsumed.join("+");
            // The plain leaves go to the stage; the products' operands,
            // which follow them, are only read.
            let mut leaves = operands;
            let operands = leaves.split_off(inputs.len());
            let rmms = (products.iter().zip(operands.chunks_exact(2)))
                .map(|(p, ab)| rmm(p.strategy, ab[0].borrowed(), ab[1].borrowed()))
                .collect::<Result<Vec<_>>>()?;
            Some((
                *out,
                cluster.cells("fused", &label, leaves, &rmms, &kernel)?,
            ))
        }
    };
    if let Some((node, m)) = out {
        values[node] = Some(m);
    }
    for (node, rid) in consumed {
        release(cluster, ctx, values, node, rid)?;
    }
    Ok(())
}

/// The primitive a tile-wise step enters: the one a consuming step admits
/// before it gives up its inputs.
fn entry_op(program: &Program, step: &PlanStep) -> Result<&'static str> {
    Ok(match step {
        PlanStep::Partition { .. } => "partition",
        PlanStep::Broadcast { .. } => "broadcast",
        PlanStep::Extract { .. } => "extract",
        PlanStep::Fused { .. } => "fused",
        PlanStep::Compute { op, strategy, .. } => match (&program.ops()[*op].kind, strategy) {
            (OpKind::Binary { op, .. }, Strategy::CellAligned(_)) => cell_kernel(*op)?.0,
            (OpKind::Unary { .. }, Strategy::UnaryLocal) => "map",
            _ => return Err(CoreError::Engine(format!("{op}: not a tile-wise compute"))),
        },
    })
}

/// The primitive name and kernel instruction of a cell-wise binary op.
fn cell_kernel(op: BinOp) -> Result<(&'static str, FusedOp)> {
    Ok(match op {
        BinOp::Add => ("add", FusedOp::Add),
        BinOp::Sub => ("sub", FusedOp::Sub),
        BinOp::CellMul => ("cell_mul", FusedOp::CellMul),
        BinOp::CellDiv => ("cell_div", FusedOp::CellDiv),
        BinOp::MatMul => return Err(CoreError::Engine("matmul with cell strategy".into())),
    })
}

/// The local product a multiply runs by `strategy`, over its operands.
fn rmm<'a>(
    strategy: Strategy,
    a: View<&'a DistMatrix>,
    b: View<&'a DistMatrix>,
) -> Result<Rmm<'a>> {
    let out = match strategy {
        Strategy::Rmm1 => PartitionScheme::Col,
        Strategy::Rmm2 => PartitionScheme::Row,
        s => {
            return Err(CoreError::Engine(format!(
                "{}: not a local product",
                s.name()
            )))
        }
    };
    Ok(Rmm { a, b, out })
}

/// The one operand of a move, always read as it is held.
fn sole(operands: Vec<View<DistMatrix>>) -> DistMatrix {
    let sole = operands.into_iter().next();
    sole.expect("a one-input step has one operand").m
}

/// Extract the lost host from a recoverable error, if it is one.
fn worker_lost(e: &CoreError) -> Option<usize> {
    match e {
        CoreError::Cluster(ClusterError::WorkerLost(host)) => Some(*host),
        _ => None,
    }
}

/// A step's spans on one side of the recovery flag — its steady attempt,
/// or everything the step's failures cost — summed.
struct SpanSums {
    comm: CommStats,
    event_bytes: u64,
    transport_bytes: u64,
    sim_sec: f64,
}

impl SpanSums {
    fn of(spans: &[OpSpan], recovery: bool) -> SpanSums {
        let side = || spans.iter().filter(move |s| s.recovery == recovery);
        SpanSums {
            comm: CommStats::of(side()),
            event_bytes: side().map(|s| s.event_bytes).sum(),
            transport_bytes: side().map(|s| s.transport_bytes).sum(),
            sim_sec: side().map(OpSpan::sim_dur_sec).sum(),
        }
    }
}

/// Logical bytes of all live values, each distributed value counted once
/// however many nodes alias it (`rid_bytes` caches each rid's price).
fn resident_bytes(values: &[Option<DistMatrix>], rid_bytes: &mut HashMap<u64, u64>) -> u64 {
    let mut seen = std::collections::HashSet::new();
    values
        .iter()
        .flatten()
        .filter(|v| seen.insert(v.rid()))
        .map(|v| {
            *rid_bytes
                .entry(v.rid())
                .or_insert_with(|| v.logical_bytes())
        })
        .sum()
}

/// Charge the run's footprint against the shared store's byte budget, if
/// it moved since `last`, so a capacity-bounded store displaces cold
/// entries *during* the run instead of over-committing RAM. Early
/// releases lower this curve, which is exactly how the liveness pass
/// converts a certified peak into fewer spills (the session zeroes the
/// pressure once the run's values are released).
fn charge_pressure(
    store: Option<&crate::store::SharedStore>,
    last: &mut u64,
    bytes: u64,
) -> Result<()> {
    if let Some(store) = store {
        if bytes != *last {
            *last = bytes;
            store.set_external_pressure(bytes)?;
        }
    }
    Ok(())
}

/// Execute `plan` for `program` on `cluster`.
///
/// `bindings` supplies a distributed matrix for every `load` declaration
/// (by matrix id); `random` declarations are generated deterministically
/// from `seed`. The cluster's meters are reset at entry. Worker losses
/// are recovered transparently within `policy`'s attempt budget.
#[allow(clippy::too_many_arguments)] // flat run-context; Session is the ergonomic entry point
pub fn execute(
    cluster: &mut Cluster,
    program: &Program,
    plan: &Plan,
    bindings: &HashMap<MatrixId, DistMatrix>,
    block_size: usize,
    seed: u64,
    planner_estimate: u64,
    policy: &RecoveryPolicy,
    store: Option<&crate::store::SharedStore>,
) -> Result<(ExecReport, RunOutputs)> {
    cluster.reset_meters();
    let wall_start = Instant::now();
    let stages = stage::schedule(plan);

    let mut producer: Vec<Option<usize>> = vec![None; plan.nodes.len()];
    for (i, step) in plan.steps.iter().enumerate() {
        if let Some(out) = step.out_node() {
            producer[out] = Some(i);
        }
    }
    // Liveness is the *plan's* job: the planner names the one step that
    // releases each dead value (see `crate::liveness`), so the engine
    // releases exactly what the certificate says, when it says. Recovery
    // reads the same record to re-drop values lineage replay resurrects.
    let mut released_at: Vec<Option<usize>> = vec![None; plan.nodes.len()];
    for (i, releases) in plan.releases.iter().enumerate() {
        for n in releases.all() {
            released_at[n] = Some(i);
        }
    }
    let ctx = ExecCtx {
        program,
        plan,
        bindings,
        block_size,
        seed,
        producer,
        sources: plan.sources.iter().copied().collect(),
        step_stage: stages.step_stage.clone(),
        released_at,
    };

    let mut values: Vec<Option<DistMatrix>> = vec![None; plan.nodes.len()];
    let mut scalars: HashMap<ScalarId, f64> = HashMap::new();

    // Seed source nodes.
    for &(node, mid) in &plan.sources {
        values[node] = Some(seed_source(cluster, &ctx, node, mid, false)?);
    }
    // Resident metering: logical bytes per distributed value, cached by
    // rid so each value is priced once per run. The sources are resident
    // before the first step runs, so a capacity-bounded store hears of
    // them now, not only once step 0 has finished.
    let mut rid_bytes: HashMap<u64, u64> = HashMap::new();
    let mut last_pressure = 0u64;
    charge_pressure(
        store,
        &mut last_pressure,
        resident_bytes(&values, &mut rid_bytes),
    )?;

    let mut per_phase: Vec<PhaseStats> = Vec::new();
    let mut step_traces: Vec<StepTrace> = Vec::with_capacity(plan.steps.len());
    let mut stats = RecoveryStats::default();
    let mut attempts_left = policy.max_attempts;
    let mut current_stage = usize::MAX;

    for (step_idx, step) in plan.steps.iter().enumerate() {
        let stage = stages.step_stage[step_idx];
        if stage != current_stage {
            current_stage = stage;
            // Stage boundary: the fault plan may take a host down here.
            // The loss is detected by the next primitive's liveness check.
            cluster.begin_stage(stage);
        }

        // Flight recorder: remember where this step's spans start and
        // when (simulated clock) the step began.
        let span_from = cluster.span_count();
        let sim_start = cluster.clock().total_sec();

        let releases = plan.releases_at(step_idx);
        loop {
            match exec_step(
                cluster,
                &ctx,
                step_idx,
                &releases.consumes,
                &mut values,
                &mut scalars,
            ) {
                Ok(()) => break,
                Err(e) => {
                    let Some(mut dead) = worker_lost(&e) else {
                        return Err(e);
                    };
                    // The failed attempt's spans (recorded clean) belong
                    // to recovery, not to the steady-state run; re-flag
                    // them and record everything until the retry as
                    // recovery traffic.
                    cluster.mark_spans_recovery(span_from);
                    cluster.set_recovery_mode(true);
                    // Recover, tolerating further losses mid-recovery as
                    // long as the attempt budget holds.
                    loop {
                        stats.worker_failures += 1;
                        if attempts_left == 0 {
                            return Err(CoreError::RecoveryExhausted {
                                worker: dead,
                                attempts: policy.max_attempts,
                            });
                        }
                        attempts_left -= 1;
                        match recovery::recover(
                            cluster,
                            &ctx,
                            &mut values,
                            &mut scalars,
                            step_idx,
                            dead,
                            &mut stats,
                        ) {
                            Ok(()) => break,
                            Err(e2) => match worker_lost(&e2) {
                                Some(h) => dead = h,
                                None => return Err(e2),
                            },
                        }
                    }
                    stats.recovery_rounds += 1;
                    cluster.set_recovery_mode(false);
                }
            }
        }

        // nnz channel: the estimator's prediction next to what the step
        // actually materialised (read before the step frees the value).
        let (predicted_nnz, observed_nnz, density_class) = match step.out_node() {
            Some(out) => {
                let predicted = plan.step_predicted_nnz(step_idx);
                let observed = values[out].as_ref().map(|m| m.nnz() as u64).unwrap_or(0);
                let decl = program.decl(plan.nodes[out].matrix)?;
                let class =
                    crate::DensityClass::classify(predicted, decl.stats.rows, decl.stats.cols)
                        .as_str();
                (predicted, observed, class)
            }
            None => (0, 0, ""),
        };
        // Meter residency after the step, with the inputs it consumed gone
        // and the values it frees still held. The certificate prices nodes
        // individually, so it dominates this by construction (V21).
        let resident = resident_bytes(&values, &mut rid_bytes);
        charge_pressure(store, &mut last_pressure, resident)?;
        // Then free what died here, and tell the store at once.
        for &node in &releases.frees {
            if let Some(m) = values[node].take() {
                release(cluster, &ctx, &values, node, m.rid())?;
            }
        }
        let after = resident_bytes(&values, &mut rid_bytes);
        charge_pressure(store, &mut last_pressure, after)?;

        // Assemble the step's flight-recorder record from the spans the
        // cluster primitives emitted while it was in flight (recovery
        // replays of earlier steps and its releases included), and fold
        // them once.
        let spans = cluster.spans()[span_from..].to_vec();
        let (steady, failed) = (SpanSums::of(&spans, false), SpanSums::of(&spans, true));
        let (kind, label) = step_identity(plan, program, step);
        step_traces.push(StepTrace {
            step: step_idx,
            stage,
            phase: step.phase(),
            kind,
            label,
            predicted_bytes: plan.predicted_bytes(step_idx),
            actual_bytes: steady.event_bytes,
            wire_bytes: steady.comm.total_bytes(),
            transport_bytes: steady.transport_bytes,
            recovery_wire_bytes: failed.comm.total_bytes(),
            predicted_nnz,
            observed_nnz,
            density_class,
            resident_bytes: resident,
            sim_start_sec: sim_start,
            sim_end_sec: cluster.clock().total_sec(),
            spans,
        });

        // The steady attempt is the step's phase's; the failed attempts
        // and the recovery they forced are what failures cost.
        let phase = step.phase();
        if per_phase.len() <= phase {
            per_phase.resize(phase + 1, PhaseStats::default());
        }
        let p = &mut per_phase[phase];
        p.shuffle_bytes += steady.comm.shuffle_bytes();
        p.broadcast_bytes += steady.comm.broadcast_bytes();
        p.comm_sec += steady.comm.comm_sec();
        p.compute_sec += steady.sim_sec - steady.comm.comm_sec();
        stats.recovery_bytes += failed.comm.total_bytes() + failed.comm.retry_bytes();
        stats.recovery_sec += failed.sim_sec;
    }

    // Collect outputs.
    let take = |v: &Vec<Option<DistMatrix>>, n: usize| -> Result<DistMatrix> {
        v[n].clone()
            .ok_or_else(|| CoreError::Engine(format!("node {n} used before definition")))
    };
    let mut outputs = RunOutputs {
        scalars,
        ..Default::default()
    };
    // Cache improved placements of load inputs (the keep-set kept them).
    for (mid, n) in liveness::cached_inputs(program, plan) {
        if let Some(v) = &values[n] {
            outputs.cached_inputs.insert(mid, v.clone());
        }
    }
    // An output read transposed (`X.t`) is fetched as its node's value (the
    // session transposes it) and stored as the identity program's view.
    for ((node, mid, name), (r, _)) in plan.outputs.iter().zip(program.outputs()) {
        let m = take(&values, *node)?;
        outputs.matrices.insert(*mid, m.clone());
        if let Some(name) = name {
            let m = match r.transposed {
                true => {
                    let view = vec![View {
                        m,
                        transposed: true,
                    }];
                    cluster.cells("map", "transpose", view, &[], &[FusedOp::Leaf(0)])?
                }
                false => m,
            };
            outputs.stored.insert(name.clone(), m);
        }
    }

    let report = ExecReport {
        comm: CommStats::of(step_traces.iter().flat_map(|t| &t.spans)),
        sim: *cluster.clock(),
        wall_sec: wall_start.elapsed().as_secs_f64(),
        per_phase,
        stage_count: stages.count,
        planner_estimate,
        recovery: stats,
        trace: Trace {
            workers: cluster.workers(),
            stage_count: stages.count,
            steps: step_traces,
            pool: cluster.pool_stats(),
            // The session fills this in after absorbing outputs; the
            // engine itself never touches the store's disk tier.
            spill: Default::default(),
        },
    };
    Ok((report, outputs))
}

/// Flight-recorder identity of a plan step: its kind tag (extended
/// operator name or compute strategy) and a human-readable label.
fn step_identity(plan: &Plan, program: &Program, step: &PlanStep) -> (String, String) {
    let label = match (step.out_node(), step) {
        (Some(n), _) => plan.node_label(program, n),
        (
            None,
            PlanStep::Compute {
                out_scalar: Some(s),
                ..
            },
        ) => format!("scalar s{s}"),
        (None, _) => String::new(),
    };
    (step.kind(), label)
}

enum ComputeResult {
    Matrix(DistMatrix),
    Scalar(f64),
}

fn run_compute(
    cluster: &mut Cluster,
    kind: &OpKind,
    strategy: crate::strategy::Strategy,
    operands: Vec<View<DistMatrix>>,
    declared_scheme: Option<PartitionScheme>,
    scalars: &HashMap<ScalarId, f64>,
) -> Result<ComputeResult> {
    use crate::strategy::Strategy as S;
    let scalar_env = |id: ScalarId| -> f64 { *scalars.get(&id).unwrap_or(&f64::NAN) };

    let matmul = matches!(
        kind,
        OpKind::Binary {
            op: BinOp::MatMul,
            ..
        }
    );
    match (kind, strategy) {
        (_, S::Rmm1 | S::Rmm2 | S::Cpmm) if matmul => {
            let (a, b) = (operands[0].borrowed(), operands[1].borrowed());
            let m = match strategy {
                S::Rmm1 => cluster.rmm1(a, b)?,
                S::Rmm2 => cluster.rmm2(a, b)?,
                // The output scheme was pinned by Re-assignment (or
                // finalised to Row); for a SystemML-S (Hash) output,
                // aggregate to Row and rehash afterwards.
                _ => {
                    let declared = declared_scheme
                        .ok_or_else(|| CoreError::Engine("cpmm without output node".into()))?;
                    let rc = declared.is_rc();
                    cluster.cpmm(a, b, if rc { declared } else { PartitionScheme::Row })?
                }
            };
            Ok(ComputeResult::Matrix(m))
        }
        // A lone aligned operator is the one-instruction case of the
        // cell-wise program a fused chain runs: same primitive, same wire
        // command, and `eval_fused_block` runs it as the `Block` method.
        (OpKind::Binary { op, .. }, S::CellAligned(_)) => {
            let (name, instr) = cell_kernel(*op)?;
            let prog = [FusedOp::Leaf(0), FusedOp::Leaf(1), instr];
            let out = cluster.cells(name, "", operands, &[], &prog)?;
            Ok(ComputeResult::Matrix(out))
        }
        (OpKind::Unary { op, .. }, S::UnaryLocal) => {
            let instr = match op {
                UnaryOp::Scale(s) => FusedOp::Scale(s.eval(&scalar_env)),
                UnaryOp::AddScalar(s) => FusedOp::AddScalar(s.eval(&scalar_env)),
            };
            let prog = [FusedOp::Leaf(0), instr];
            let out = cluster.cells("map", op.name(), operands, &[], &prog)?;
            Ok(ComputeResult::Matrix(out))
        }
        (OpKind::Reduce { op, .. }, S::ReduceLocal) => {
            let m = &operands[0].m;
            let v = match op {
                ReduceOp::Sum | ReduceOp::Value => cluster.reduce(m, ReduceKind::Sum)?,
                ReduceOp::Norm2 => cluster.reduce(m, ReduceKind::Norm2)?,
            };
            Ok(ComputeResult::Scalar(v))
        }
        (k, s) => Err(CoreError::Engine(format!(
            "strategy {s:?} incompatible with operator {k:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_report_json_carries_the_nnz_channel() {
        let mut p = dmac_lang::Program::new();
        let a = p.load("A", 8, 8, 1.0);
        let b = p.add(a, a).unwrap();
        p.output(b);
        let mut s = crate::Session::builder().workers(2).block_size(4).build();
        let m = dmac_matrix::BlockedMatrix::from_fn(8, 8, 4, |i, j| (i + j) as f64).unwrap();
        s.bind("A", m).unwrap();
        let json = s.run(&p).unwrap().to_json();
        for needle in [
            "\"predicted_nnz\":",
            "\"observed_nnz\":",
            "\"step_nnz\":[",
            "\"density_class\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn a_capped_store_makes_room_for_the_sources_before_step_0() {
        // The program's only matrix is its source: the plan has no step
        // that could report residency after it ran.
        let mut p = dmac_lang::Program::new();
        let a = p.random("A", 32, 32);
        p.output(a);
        let cfg = crate::planner::PlannerConfig {
            fusion_block: 8,
            ..Default::default()
        };
        let plan = crate::planner::plan_program(&p, &cfg, 2, &HashMap::new())
            .unwrap()
            .plan;
        assert!(plan.steps.is_empty(), "{:?}", plan.steps);

        let mut cluster = Cluster::new(dmac_cluster::ClusterConfig {
            workers: 2,
            ..Default::default()
        });
        let cold = dmac_matrix::BlockedMatrix::from_fn(16, 16, 8, |i, j| (i + j) as f64).unwrap();
        let cold = cluster.load(&cold, dmac_cluster::PartitionScheme::Row);
        // Room for the cold entry or for A's 8 KiB, not for both.
        let store = crate::store::SharedStore::with_capacity(cold.logical_bytes() + 4096);
        store.insert("cold", cold).unwrap();
        let policy = RecoveryPolicy::default();
        execute(
            &mut cluster,
            &p,
            &plan,
            &HashMap::new(),
            8,
            7,
            0,
            &policy,
            Some(&store),
        )
        .unwrap();
        let stats = store.stats();
        assert_eq!(stats.external_pressure, 32 * 32 * 8);
        assert_eq!((stats.entries, stats.evictions), (0, 1), "{stats:?}");
    }

    #[test]
    fn a_multiply_frees_its_dying_inputs_after_its_sample() {
        // `A · B` is the last step and the last reader of both inputs; a
        // multiply never consumes, so it frees them once it has run.
        let mut p = dmac_lang::Program::new();
        let a = p.random("A", 32, 32);
        let b = p.random("B", 32, 32);
        let c = p.matmul(a, b).unwrap();
        p.output(c);
        let cfg = crate::planner::PlannerConfig {
            fusion_block: 8,
            ..Default::default()
        };
        let plan = crate::planner::plan_program(&p, &cfg, 2, &HashMap::new())
            .unwrap()
            .plan;
        let m = plan.steps.len() - 1;
        let PlanStep::Compute {
            strategy: Strategy::Rmm1 | Strategy::Rmm2 | Strategy::Cpmm,
            inputs,
            ..
        } = &plan.steps[m]
        else {
            panic!("the last step is not the multiply\n{}", plan.explain(&p));
        };
        let mut dying: Vec<usize> = inputs.iter().map(|o| o.node).collect();
        dying.sort_unstable();
        assert_eq!(plan.releases_at(m).frees, dying, "{}", plan.explain(&p));
        assert!(plan.releases_at(m).consumes.is_empty());

        let mut cluster = Cluster::new(dmac_cluster::ClusterConfig {
            workers: 2,
            ..Default::default()
        });
        let store = crate::store::SharedStore::with_capacity(1 << 20);
        let policy = RecoveryPolicy::default();
        let (report, _) = execute(
            &mut cluster,
            &p,
            &plan,
            &HashMap::new(),
            8,
            7,
            0,
            &policy,
            Some(&store),
        )
        .unwrap();
        // The step's sample still holds both inputs next to the product;
        // the store hears the lower footprint before any next step.
        let value = 32 * 32 * 8;
        assert_eq!(report.trace.steps[m].resident_bytes, 3 * value);
        assert_eq!(store.stats().external_pressure, value);
    }

    #[test]
    fn random_cell_is_deterministic_and_uniform_ish() {
        let a = random_cell(42, 1, 3, 4);
        let b = random_cell(42, 1, 3, 4);
        assert_eq!(a, b);
        assert!((0.0..1.0).contains(&a));
        assert_ne!(random_cell(42, 1, 3, 5), a);
        assert_ne!(random_cell(43, 1, 3, 4), a);
        // crude uniformity: mean of many samples near 0.5
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|i| random_cell(7, 0, i, i * 31 + 1))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
