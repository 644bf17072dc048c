//! [`Session`]: the user-facing entry point, tying planner, cluster and
//! engine together — the DMac "driver program" (paper §5.4).
//!
//! A session owns a simulated cluster and a [`SharedStore`] of named
//! distributed matrices (its environment). Running a program:
//!
//! 1. resolves every `load` against the store (matrices stored by a
//!    previous run keep their partition schemes — dependency information
//!    flows *across* programs, which is how iterative algorithms avoid
//!    repartitioning loop-invariant inputs like PageRank's link matrix),
//! 2. plans it with the configured system's planner (DMac or SystemML-S),
//! 3. executes the staged plan, and
//! 4. persists `store`d outputs back into the store.
//!
//! By default each session gets a private store; the service layer
//! (`dmac-serve`) builds many sessions over one [`SharedStore`] via
//! [`SessionBuilder::store`], which is what makes named matrices visible
//! across concurrent client sessions.

use std::collections::HashMap;
use std::sync::Arc;

use dmac_cluster::{
    Cluster, ClusterConfig, DistMatrix, FaultPlan, NetworkModel, PartitionScheme, SocketOptions,
    SocketTransport,
};
use dmac_lang::{Expr, MatrixId, MatrixOrigin, Program};
use dmac_matrix::BlockedMatrix;

use dmac_stats::{DensityClass, SparsityProfile};

use crate::baselines::SystemKind;
use crate::engine::{self, ExecReport};
use crate::error::{CoreError, Result};
use crate::plan::Plan;
use crate::planner::{plan_program_profiled, plan_with_forced_profiled, Planned, PlannerConfig};
use crate::recovery::RecoveryPolicy;
use crate::stage;
use crate::store::SharedStore;
use crate::trace::SpillTraffic;

/// Builder for [`Session`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    workers: usize,
    local_threads: usize,
    network: NetworkModel,
    system: SystemKind,
    block_size: usize,
    seed: u64,
    fault_plan: Option<FaultPlan>,
    recovery: RecoveryPolicy,
    store: Option<SharedStore>,
    /// Real `dmac-workerd` processes over local TCP sockets, or (`None`,
    /// the default) the in-process metered simulator alone.
    socket: Option<SocketOptions>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            workers: 4,
            local_threads: 8,
            network: NetworkModel::default(),
            system: SystemKind::Dmac,
            block_size: 256,
            seed: 0xD11AC,
            fault_plan: None,
            recovery: RecoveryPolicy::default(),
            store: None,
            socket: None,
        }
    }
}

impl SessionBuilder {
    /// Number of simulated workers (the paper's `N`/`K`).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Local threads per worker (the paper's `L`).
    pub fn local_threads(mut self, l: usize) -> Self {
        self.local_threads = l.max(1);
        self
    }

    /// Network model for simulated communication time.
    pub fn network(mut self, n: NetworkModel) -> Self {
        self.network = n;
        self
    }

    /// Which system plans the programs (DMac, SystemML-S, or single-node R).
    pub fn system(mut self, s: SystemKind) -> Self {
        self.system = s;
        self
    }

    /// Square block size used for every matrix in the session.
    pub fn block_size(mut self, b: usize) -> Self {
        self.block_size = b.max(1);
        self
    }

    /// Seed for `RandomMatrix` generation.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Install a deterministic fault-injection plan on the cluster (see
    /// [`FaultPlan`]). Without one, nothing ever fails.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Worker losses tolerated per run before
    /// [`CoreError::RecoveryExhausted`] surfaces. Defaults to 3; `0`
    /// restores fail-fast behaviour.
    pub fn recovery_attempts(mut self, n: usize) -> Self {
        self.recovery = RecoveryPolicy::attempts(n);
        self
    }

    /// Back the session's environment with an existing shared store
    /// instead of a fresh private one. All sessions sharing the store see
    /// each other's `bind`s and `store`d outputs.
    pub fn store(mut self, store: SharedStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Run the session on real `dmac-workerd` processes over local TCP
    /// sockets instead of the in-process simulator. The simulator stays
    /// authoritative; the socket backend mirrors every operation and the
    /// cluster proves the two byte-equal. Launching worker processes can
    /// fail, so sessions with this backend must be built with
    /// [`SessionBuilder::try_build`].
    pub fn socket_transport(mut self, opts: SocketOptions) -> Self {
        self.socket = Some(opts);
        self
    }

    /// Build the session, panicking if the transport backend fails to
    /// launch. Infallible for the default simulator backend; sessions
    /// using [`SessionBuilder::socket_transport`] should prefer
    /// [`SessionBuilder::try_build`].
    pub fn build(self) -> Session {
        self.try_build().expect("transport launch failed")
    }

    /// Build the session, surfacing transport launch failures.
    pub fn try_build(self) -> Result<Session> {
        let (workers, mut planner) = match self.system {
            SystemKind::Dmac => (self.workers, PlannerConfig::default()),
            SystemKind::SystemMlS => (self.workers, PlannerConfig::systemml_s()),
            // R: the same engine confined to one worker — communication
            // disappears, matching the paper's single-machine baseline.
            SystemKind::RLocal => (1, PlannerConfig::default()),
        };
        // Profile propagation, the memory certificate and the fusion size
        // gate all count in blocks of the session's size.
        planner.fusion_block = self.block_size;
        let config = ClusterConfig {
            workers,
            local_threads: self.local_threads,
            network: self.network,
        };
        let mut cluster = match self.socket {
            None => Cluster::new(config),
            Some(opts) => {
                let transport = SocketTransport::launch(workers, opts)?;
                Cluster::with_transport(config, Box::new(transport))
            }
        };
        let env = self.store.unwrap_or_default();
        if let Some(plan) = self.fault_plan {
            // The crash op lives in the store's disk tier; stage/op kills
            // live in the cluster. One plan arms both.
            if let Some(disk) = env.disk() {
                disk.arm_crashes(&plan);
            }
            cluster.set_fault_plan(plan);
        }
        Ok(Session {
            cluster,
            planner,
            system: self.system,
            block_size: self.block_size,
            seed: self.seed,
            recovery: self.recovery,
            env,
            last_values: HashMap::new(),
            last_scalars: HashMap::new(),
            last_report: None,
        })
    }
}

/// A DMac session: cluster + shared matrix store + planner configuration.
#[derive(Debug)]
pub struct Session {
    cluster: Cluster,
    planner: PlannerConfig,
    system: SystemKind,
    block_size: usize,
    seed: u64,
    recovery: RecoveryPolicy,
    env: SharedStore,
    last_values: HashMap<MatrixId, DistMatrix>,
    last_scalars: HashMap<dmac_lang::ScalarId, f64>,
    last_report: Option<ExecReport>,
}

impl Session {
    /// Start building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The session's block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The configured system kind.
    pub fn system(&self) -> SystemKind {
        self.system
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.cluster.workers()
    }

    /// Access the underlying cluster (meters, failure injection).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Name of the cluster communication backend (`"sim"` or `"socket"`).
    pub fn transport_name(&self) -> &'static str {
        self.cluster.transport_name()
    }

    /// Whether the backend runs real worker processes.
    pub fn transport_is_physical(&self) -> bool {
        self.cluster.transport_is_physical()
    }

    /// The transport backend's cumulative wire counters (frames, payload
    /// bytes, relay/peer bytes, dispatch rounds).
    pub fn transport_stats(&self) -> dmac_cluster::TransportStats {
        self.cluster.transport_stats()
    }

    /// Cleanly stop the transport backend. On the socket backend this
    /// asks every worker process to exit and reaps it, erroring if any
    /// child had to be killed. The simulator backend is a no-op.
    pub fn shutdown_transport(&mut self) -> Result<()> {
        self.cluster.shutdown_transport()?;
        Ok(())
    }

    /// Bind a local matrix under `name`, reblocking to the session's block
    /// size.
    ///
    /// Binding what is already bound is a compare, not a re-install: when
    /// `name` is resident in the store and **bit-identical** to `m` (same
    /// shape and block size, every tile the same representation and equal
    /// by [`f64::to_bits`]), nothing changes — the entry keeps its value,
    /// the placement the last plan adopted for it, and the shards the
    /// worker processes already hold, so the next plan does not partition
    /// it again. Anything else (unbound, spilled to the disk tier, any
    /// differing bit) replaces the entry with `m` scattered
    /// hash-partitioned, a freshly loaded RDD. The compare is exact and
    /// stops at the first difference; tiles shared by `Arc` (a re-bound
    /// `clone()`) are not read at all.
    pub fn bind(&mut self, name: &str, m: BlockedMatrix) -> Result<()> {
        let m = if m.block_size() == self.block_size {
            m
        } else {
            m.reblock(self.block_size)?
        };
        let held = self.env.peek(name);
        if held.is_some_and(|d| d.workers() == self.workers() && holds_exactly(&d, &m)) {
            return Ok(());
        }
        let dist = self.cluster.load(&m, PartitionScheme::Hash);
        self.bind_dist(name, dist)
    }

    /// Bind an already-distributed matrix (keeps its scheme). Always
    /// replaces the entry, identical or not.
    pub fn bind_dist(&mut self, name: &str, m: DistMatrix) -> Result<()> {
        let inserted = self.env.insert(name, m);
        self.sweep();
        inserted.map(drop)
    }

    /// Tell the cluster which values a live handle still names — a
    /// resident store entry or an output of the last run — so the worker
    /// processes free every other value they hold. Called after anything
    /// that can drop a handle: a replacing bind, a drop, the end of a run
    /// whether it succeeded or failed. Nothing is tracked by hand, so it
    /// cannot miss a value: an entry the *store* displaced, a placement
    /// not cached, a superseded output, what a failed run installed and
    /// what lineage replay resurrected all go the same way. A no-op on
    /// the simulator, where there is nothing to release.
    fn sweep(&mut self) {
        if !self.cluster.transport_is_physical() {
            return;
        }
        let mut live = self.env.resident_rids();
        live.extend(self.last_values.values().map(DistMatrix::rid));
        self.cluster.retain(&live);
    }

    /// Is a name bound?
    pub fn is_bound(&self, name: &str) -> bool {
        self.env.contains(name)
    }

    /// Drop a named matrix from the store, eagerly releasing its blocks
    /// (the store's LRU eviction builds on the same release path).
    /// Returns whether the name was bound.
    pub fn drop_matrix(&mut self, name: &str) -> bool {
        let existed = self.env.remove(name);
        self.sweep();
        existed
    }

    /// The store backing this session's environment (shared with other
    /// sessions when built via [`SessionBuilder::store`]).
    pub fn shared_store(&self) -> &SharedStore {
        &self.env
    }

    /// Fetch a stored environment matrix as a local blocked matrix.
    pub fn env_value(&self, name: &str) -> Result<BlockedMatrix> {
        let d = self
            .env
            .get(name)
            .ok_or_else(|| CoreError::Unbound(name.to_string()))?;
        Ok(d.to_blocked()?)
    }

    fn resolve_inputs(
        &self,
        program: &Program,
    ) -> Result<(
        HashMap<MatrixId, DistMatrix>,
        HashMap<MatrixId, PartitionScheme>,
    )> {
        let mut bindings = HashMap::new();
        let mut initial = HashMap::new();
        let origin = |o: MatrixOrigin| program.matrices().iter().filter(move |d| d.origin == o);
        // One batch: the store sees the run's whole read set — the engine
        // never reads it again — before it displaces anything.
        let names: Vec<&str> = origin(MatrixOrigin::Load)
            .map(|d| d.name.as_str())
            .collect();
        for (decl, dist) in origin(MatrixOrigin::Load).zip(self.env.get_all(&names)?) {
            let dist = dist.ok_or_else(|| CoreError::Unbound(decl.name.clone()))?;
            initial.insert(decl.id, dist.scheme());
            bindings.insert(decl.id, dist);
        }
        for decl in origin(MatrixOrigin::Random) {
            initial.insert(decl.id, PartitionScheme::Hash);
        }
        Ok((bindings, initial))
    }

    /// Measured sparsity profiles of a run's load bindings (the
    /// "computed at load" half of the statistics subsystem): every bound
    /// input gets an exact per-block-strip nnz census, which the
    /// estimator then propagates through the whole program.
    fn measured_profiles(
        bindings: &HashMap<MatrixId, DistMatrix>,
    ) -> HashMap<MatrixId, SparsityProfile> {
        bindings
            .iter()
            .map(|(&mid, d)| (mid, crate::profile::measure_dist(d)))
            .collect()
    }

    /// Best-effort source profiles for planning without execution
    /// (`plan_only` / `prepare` / `explain`): measure whatever is
    /// *resident* in the store right now. Spilled or unbound inputs fall
    /// back to the declaration's uniform sparsity inside the estimator.
    fn peeked_profiles(&self, program: &Program) -> HashMap<MatrixId, SparsityProfile> {
        let mut out = HashMap::new();
        for decl in program.matrices() {
            if matches!(decl.origin, MatrixOrigin::Load) {
                if let Some(d) = self.env.peek(&decl.name) {
                    out.insert(decl.id, crate::profile::measure_dist(&d));
                }
            }
        }
        out
    }

    /// Initial schemes for planning: bound load inputs keep their cached
    /// scheme, everything else is assumed Hash-placed. Planning needs no
    /// data, so unbound loads are fine here (unlike [`Session::run`]).
    ///
    /// Random matrices are always Hash: the engine generates them fresh
    /// each run, so a store entry that happens to share a random
    /// variable's name (GNMF stores `H` over its own `random` input)
    /// must not leak its scheme into the plan — [`Session::run_prepared`]
    /// checks staleness against the same Hash assumption.
    fn initial_schemes(&self, program: &Program) -> HashMap<MatrixId, PartitionScheme> {
        let mut initial = HashMap::new();
        for decl in program.matrices() {
            match decl.origin {
                MatrixOrigin::Load => {
                    let scheme = self
                        .env
                        .scheme_of(&decl.name)
                        .unwrap_or(PartitionScheme::Hash);
                    initial.insert(decl.id, scheme);
                }
                MatrixOrigin::Random => {
                    initial.insert(decl.id, PartitionScheme::Hash);
                }
                MatrixOrigin::Op(_) => {}
            }
        }
        initial
    }

    /// Plan `program` from the given placements and source profiles —
    /// searched, or with `forced` strategies and no search. In debug
    /// builds, any installed plan verifier (see [`crate::verifyhook`])
    /// re-checks the plan's invariants before it is returned.
    fn plan_with(
        &self,
        program: &Program,
        initial: &HashMap<MatrixId, PartitionScheme>,
        sources: &HashMap<MatrixId, SparsityProfile>,
        forced: Option<&HashMap<usize, usize>>,
    ) -> Result<Planned> {
        let (cfg, workers) = (&self.planner, self.cluster.workers());
        let planned = match forced {
            None => plan_program_profiled(program, cfg, workers, initial, sources)?,
            Some(_) => plan_with_forced_profiled(program, cfg, workers, initial, sources, forced)?,
        };
        crate::verifyhook::check(program, &planned, cfg, workers)?;
        Ok(planned)
    }

    /// Plan a program without executing it.
    pub fn plan_only(&self, program: &Program) -> Result<Plan> {
        Ok(self.prepare(program)?.planned.plan)
    }

    /// Plan a program once for repeated execution ([`Session::run_prepared`]).
    /// The plan is bound to the *current* placements of the session's
    /// environment; if a later run finds an input under a different
    /// scheme, `run_prepared` rejects it (re-`prepare` instead).
    pub fn prepare(&self, program: &Program) -> Result<PreparedProgram> {
        self.prepare_with(program, None)
    }

    /// Like [`Session::prepare`], but with the strategy of selected
    /// operators forced (`forced[op index] = candidate index`) and no
    /// search: every other operator keeps the greedy argmin and every
    /// input is placed by its first reader ([`plan_with_forced_profiled`]).
    /// A what-if plan, e.g. a reference that computes every product the
    /// way another plan does.
    pub fn prepare_forced(
        &self,
        program: &Program,
        forced: &HashMap<usize, usize>,
    ) -> Result<PreparedProgram> {
        self.prepare_with(program, Some(forced))
    }

    fn prepare_with(
        &self,
        program: &Program,
        forced: Option<&HashMap<usize, usize>>,
    ) -> Result<PreparedProgram> {
        let initial = self.initial_schemes(program);
        let sources = self.peeked_profiles(program);
        let planned = self.plan_with(program, &initial, &sources, forced)?;
        Ok(PreparedProgram {
            program: program.clone(),
            planned,
            initial,
        })
    }

    /// Execute a prepared plan against the current environment, skipping
    /// planning. Fails with [`CoreError::StalePlan`] if any input's cached
    /// placement no longer matches what the plan assumed.
    pub fn run_prepared(&mut self, prep: &PreparedProgram) -> Result<ExecReport> {
        let spill0 = self.env.spill_traffic();
        let (bindings, current) = self.resolve_inputs(&prep.program)?;
        for (mid, scheme) in &prep.initial {
            if current.get(mid) != Some(scheme) {
                let decl = prep.program.decl(*mid);
                return Err(CoreError::StalePlan {
                    input: decl.map_or_else(|_| format!("m{mid}"), |d| d.name.clone()),
                    planned: *scheme,
                    found: current.get(mid).copied(),
                });
            }
        }
        self.execute_planned(&prep.program, &prep.planned, &bindings, spill0)
    }

    /// Execute `planned` over `bindings` and fold the run into the
    /// session: release its store pressure, re-check the trace against
    /// the certificate (V21 hook), absorb the outputs, attribute the
    /// spill traffic since `spill0` — and, however the run ended, sweep
    /// the workers down to what live handles name.
    fn execute_planned(
        &mut self,
        program: &Program,
        planned: &Planned,
        bindings: &HashMap<MatrixId, DistMatrix>,
        spill0: SpillTraffic,
    ) -> Result<ExecReport> {
        let result = engine::execute(
            &mut self.cluster,
            program,
            &planned.plan,
            bindings,
            self.block_size,
            self.seed,
            planned.estimated_comm,
            &self.recovery,
            Some(&self.env),
        );
        // The run is over (successfully or not): its values are released,
        // so the store no longer carries their pressure.
        let _ = self.env.set_external_pressure(0);
        let absorbed = result.and_then(|(report, outputs)| {
            crate::verifyhook::check_run(&planned.certificate, &report.trace)?;
            self.absorb_outputs(program, outputs)?;
            Ok(report)
        });
        self.sweep();
        let mut report = absorbed?;
        report.trace.spill = self.env.spill_traffic().since(&spill0);
        self.last_report = Some(report.clone());
        Ok(report)
    }

    /// EXPLAIN: render the plan, its stage schedule, the estimator's
    /// per-step predicted output nnz / density class, the first placement
    /// of every Hash-placed input, and the liveness pass's memory
    /// certificate.
    pub fn explain(&self, program: &Program) -> Result<String> {
        let initial = self.initial_schemes(program);
        let sources = self.peeked_profiles(program);
        let planned = self.plan_with(program, &initial, &sources, None)?;
        let plan = &planned.plan;
        let cert = &planned.certificate;
        Ok(format!(
            "{}\n{}{}{}{}memory: certified peak {} bytes at step {} over {} steps\n",
            plan.explain(program),
            stage::explain_stages(plan, program),
            explain_sparsity(plan, program),
            self.explain_placement(program, &initial, &sources, plan)?,
            self.explain_search(program, &planned),
            cert.peak,
            cert.argmax,
            plan.steps.len(),
        ))
    }

    /// One line per Hash-placed input (DMac only). A `load`'s names the
    /// placement `plan` leaves it in for later runs, beside the one first
    /// touch — the plain greedy, placing it by its first reader — would
    /// have chosen and that plan's price, e.g.
    /// `placement: V → r (first touch c: 46 976 208 B)`. A `random`
    /// source's names the scheme `plan` generates it in, beside first
    /// touch's first move of it and that move's price, e.g.
    /// `placement: rank0 → b (generated; first touch h→b: 524 288 B)`.
    fn explain_placement(
        &self,
        program: &Program,
        initial: &HashMap<MatrixId, PartitionScheme>,
        sources: &HashMap<MatrixId, SparsityProfile>,
        plan: &Plan,
    ) -> Result<String> {
        use std::fmt::Write as _;
        let hashed: Vec<_> = program
            .matrices()
            .iter()
            .filter(|d| {
                matches!(d.origin, MatrixOrigin::Load | MatrixOrigin::Random)
                    && initial.get(&d.id) == Some(&PartitionScheme::Hash)
            })
            .collect();
        let mut s = String::new();
        if hashed.is_empty() || !self.planner.exploit_dependencies {
            return Ok(s);
        }
        let workers = self.cluster.workers();
        let first =
            plan_with_forced_profiled(program, &self.planner, workers, initial, sources, None)?;
        let cached = |plan: &Plan, mid: MatrixId| {
            crate::liveness::cached_inputs(program, plan)
                .into_iter()
                .find(|&(m, _)| m == mid)
                .map_or(PartitionScheme::Hash, |(_, n)| plan.nodes[n].scheme)
        };
        let born = |plan: &Plan, mid: MatrixId| {
            plan.sources
                .iter()
                .find(|&&(_, m)| m == mid)
                .map_or(PartitionScheme::Hash, |&(n, _)| plan.nodes[n].scheme)
        };
        for d in hashed {
            let _ = if matches!(d.origin, MatrixOrigin::Load) {
                writeln!(
                    s,
                    "placement: {} → {} (first touch {}: {} B)",
                    d.name,
                    cached(plan, d.id),
                    cached(&first.plan, d.id),
                    grouped(first.estimated_comm)
                )
            } else {
                // First touch's first move of the source: the one
                // partition or broadcast its first reader paid for.
                let moved = first.plan.steps.iter().enumerate().find_map(|(i, step)| {
                    let out = &first.plan.nodes[step.out_node()?];
                    (step.is_comm() && out.matrix == d.id).then_some((out.scheme, i))
                });
                let (to, bytes) = moved.map_or((String::new(), 0), |(to, i)| {
                    (format!("→{to}"), first.plan.predicted_bytes(i))
                });
                writeln!(
                    s,
                    "placement: {} → {} (generated; first touch h{to}: {} B)",
                    d.name,
                    born(plan, d.id),
                    grouped(bytes)
                )
            };
        }
        Ok(s)
    }

    /// Why the plan differs from the placement product's winner (DMac
    /// only): the seed's and the final predicted bytes, then one line per
    /// move the coordinate descent kept, e.g.
    /// `descent: op 5 RMM1 → RMM2 (−6 144 B)` or
    /// `descent: W → b (−3 584 B)`.
    fn explain_search(&self, program: &Program, planned: &Planned) -> String {
        use crate::planner::Move;
        use std::fmt::Write as _;
        let mut s = String::new();
        if !self.planner.exploit_dependencies {
            return s;
        }
        let search = &planned.search;
        let _ = writeln!(
            s,
            "search: product seed {} B → {} B after {} descent move(s)",
            grouped(search.seed_comm),
            grouped(planned.estimated_comm),
            search.moves.len()
        );
        for &(mv, saved) in &search.moves {
            let what = match mv {
                Move::Strategy(op, from, to) => format!("op {op} {} → {}", from.name(), to.name()),
                Move::Place(matrix, to) => format!(
                    "{} → {}",
                    program.decl(matrix).map_or("?", |d| d.name.as_str()),
                    to.map_or("first touch".to_string(), |s| s.to_string())
                ),
            };
            let _ = writeln!(s, "descent: {what} (−{} B)", grouped(saved));
        }
        s
    }

    /// Plan and execute a program; persists `store`d outputs.
    pub fn run(&mut self, program: &Program) -> Result<ExecReport> {
        let spill0 = self.env.spill_traffic();
        let (bindings, initial) = self.resolve_inputs(program)?;
        let sources = Self::measured_profiles(&bindings);
        let planned = self.plan_with(program, &initial, &sources, None)?;
        self.execute_planned(program, &planned, &bindings, spill0)
    }

    /// Publish a durable snapshot of the named store entries at `phase`
    /// (see [`SharedStore::checkpoint`]). Iterative drivers call this at
    /// phase boundaries so a crashed run resumes from the snapshot
    /// instead of replaying its full lineage.
    pub fn checkpoint(&self, names: &[String], phase: u64) -> Result<u64> {
        self.env.checkpoint(names, phase)
    }

    /// Fold a run's outputs into the session: persist `store`d matrices,
    /// cache improved input placements (DMac only — SystemML-S's cache
    /// stays hash-partitioned, per the paper), and expose output values.
    /// Both walks are in key order (`RunOutputs` holds `BTreeMap`s), so the
    /// store's displacement sequence — and its counters — repeat exactly.
    /// Store inserts may displace entries to disk; a disk failure there
    /// surfaces as the run's error. What this lets go of — overwritten
    /// entries, placements not cached, the previous run's outputs — the
    /// caller's [`Session::sweep`] releases on the workers.
    fn absorb_outputs(&mut self, program: &Program, outputs: engine::RunOutputs) -> Result<()> {
        for (mid, dist) in outputs.cached_inputs {
            match program.decl(mid) {
                // A name this run stores is about to be overwritten: its
                // old placement is dead, not worth an insert.
                Ok(decl)
                    if self.planner.exploit_dependencies
                        && !outputs.stored.contains_key(&decl.name) =>
                {
                    self.env.insert(&decl.name, dist)?;
                }
                _ => {}
            }
        }
        for (name, dist) in outputs.stored {
            self.env.insert(&name, dist)?;
        }
        self.last_values = outputs.matrices;
        self.last_scalars = outputs.scalars;
        Ok(())
    }

    /// A matrix output of the last run, gathered to the driver.
    pub fn value(&self, e: Expr) -> Result<BlockedMatrix> {
        let d = self.last_values.get(&e.id).ok_or_else(|| {
            CoreError::NoValue(format!("matrix {} is not an output of the last run", e.id))
        })?;
        let m = d.to_blocked()?;
        Ok(if e.transposed { m.transpose() } else { m })
    }

    /// A matrix output of the last run, gathered **from the physical
    /// workers** instead of the in-process oracle. `Ok(None)` on the
    /// simulator backend (there is no second copy to gather). On the
    /// socket backend the returned matrix is reassembled purely from
    /// tile bytes shipped back by `dmac-workerd` processes, so comparing
    /// it bit-for-bit against [`Session::value`] proves the real cluster
    /// holds exactly the state the oracle says it should.
    pub fn value_physical(&mut self, e: Expr) -> Result<Option<BlockedMatrix>> {
        let d = self
            .last_values
            .get(&e.id)
            .ok_or_else(|| {
                CoreError::NoValue(format!("matrix {} is not an output of the last run", e.id))
            })?
            .clone();
        match self.cluster.gather_physical(&d)? {
            None => Ok(None),
            Some(g) => {
                let m = g.to_blocked()?;
                Ok(Some(if e.transposed { m.transpose() } else { m }))
            }
        }
    }

    /// Evaluate a scalar expression against the last run's reduction
    /// results (the driver-side α/β values of CG and Lanczos).
    pub fn scalar_value(&self, e: &dmac_lang::ScalarExpr) -> Result<f64> {
        for dep in e.deps() {
            if !self.last_scalars.contains_key(&dep) {
                return Err(CoreError::NoValue(format!(
                    "scalar {dep} was not produced by the last run"
                )));
            }
        }
        Ok(e.eval(&|id| self.last_scalars[&id]))
    }

    /// The report of the last run.
    pub fn last_report(&self) -> Option<&ExecReport> {
        self.last_report.as_ref()
    }

    /// The flight-recorder trace of the last run (see [`crate::trace`]).
    pub fn last_trace(&self) -> Option<&crate::trace::Trace> {
        self.last_report.as_ref().map(|r| &r.trace)
    }
}

/// Does `held` hold exactly the content of `m` — same shape and block
/// size, and every tile of `m` present where `held`'s scheme places it,
/// either the same allocation or equal by `Block::bits_eq`?
fn holds_exactly(held: &DistMatrix, m: &BlockedMatrix) -> bool {
    (held.rows(), held.cols(), held.block_size()) == (m.rows(), m.cols(), m.block_size())
        && m.iter_blocks().all(|(bi, bj, tile)| {
            // A Broadcast matrix has no single owner: every worker holds
            // every tile, so worker 0's copy stands for all of them.
            let w = held.owner_of(bi, bj).unwrap_or(0);
            held.block_on(w, bi, bj)
                .is_some_and(|t| Arc::ptr_eq(t, tile) || t.bits_eq(tile))
        })
}

/// `n` with its digits in groups of three: `46 976 208`.
fn grouped(n: u64) -> String {
    let digits = n.to_string();
    let mut s = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            s.push(' ');
        }
        s.push(c);
    }
    s
}

/// Render the estimator's view of a plan: predicted output nnz and
/// density class for every matrix-producing step.
fn explain_sparsity(plan: &Plan, program: &Program) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("sparsity (predicted):\n");
    for (i, step) in plan.steps.iter().enumerate() {
        let Some(out) = step.out_node() else { continue };
        let nnz = plan.step_predicted_nnz(i);
        let Ok(decl) = program.decl(plan.nodes[out].matrix) else {
            continue;
        };
        let class = DensityClass::classify(nnz, decl.stats.rows, decl.stats.cols);
        let _ = writeln!(
            s,
            "  step {:>3}: nnz={} class={} [{}]",
            i,
            nnz,
            class.as_str(),
            plan.node_label(program, out)
        );
    }
    s
}

/// A program planned once for repeated execution (see
/// [`Session::prepare`]).
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    program: Program,
    planned: Planned,
    initial: HashMap<MatrixId, PartitionScheme>,
}

impl PreparedProgram {
    /// The cached plan.
    pub fn plan(&self) -> &Plan {
        &self.planned.plan
    }

    /// The planner's communication estimate.
    pub fn estimated_comm(&self) -> u64 {
        self.planned.estimated_comm
    }

    /// The liveness pass's memory certificate: the step-indexed upper
    /// bound on resident bytes this plan is guaranteed to respect.
    pub fn certificate(&self) -> &crate::plan::MemoryCertificate {
        &self.planned.certificate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> BlockedMatrix {
        BlockedMatrix::from_fn(rows, cols, 8, |i, j| ((i * cols + j) % 7) as f64 - 3.0).unwrap()
    }

    #[test]
    fn end_to_end_cellwise_chain_matches_local() {
        let mut s = Session::builder()
            .workers(3)
            .local_threads(2)
            .block_size(8)
            .build();
        let a = ramp(20, 16);
        let b = ramp(20, 16);
        s.bind("A", a.clone()).unwrap();
        s.bind("B", b.clone()).unwrap();

        let mut p = Program::new();
        let ea = p.load("A", 20, 16, 1.0);
        let eb = p.load("B", 20, 16, 1.0);
        let sum = p.add(ea, eb).unwrap();
        let prod = p.cell_mul(sum, sum).unwrap();
        p.output(prod);

        let report = s.run(&p).unwrap();
        let got = s.value(prod).unwrap();
        let expect = a.add(&b).unwrap();
        let expect = expect.cell_mul(&expect).unwrap();
        assert_eq!(got.to_dense(), expect.to_dense());
        assert!(report.stage_count >= 1);
    }

    #[test]
    fn end_to_end_matmul_matches_local() {
        let mut s = Session::builder()
            .workers(4)
            .local_threads(2)
            .block_size(8)
            .build();
        let a = ramp(24, 16);
        s.bind("A", a.clone()).unwrap();

        let mut p = Program::new();
        let ea = p.load("A", 24, 16, 1.0);
        let g = p.matmul(ea.t(), ea).unwrap(); // gram matrix
        p.output(g);
        s.run(&p).unwrap();
        let got = s.value(g).unwrap();
        let expect = a.transpose().matmul_reference(&a).unwrap();
        if let Some(i) =
            dmac_matrix::approx_eq_slice(got.to_dense().data(), expect.to_dense().data(), 1e-9)
        {
            panic!("mismatch at {i}");
        }
    }

    #[test]
    fn unbound_load_is_an_error() {
        let mut s = Session::builder().build();
        let mut p = Program::new();
        let a = p.load("NOPE", 4, 4, 1.0);
        p.output(a);
        assert!(matches!(s.run(&p), Err(CoreError::Unbound(_))));
    }

    #[test]
    fn shape_mismatch_binding_is_an_error() {
        let mut s = Session::builder().block_size(4).build();
        s.bind("A", ramp(8, 8)).unwrap();
        let mut p = Program::new();
        let a = p.load("A", 9, 9, 1.0); // declared wrong
        let b = p.scale_const(a, 2.0).unwrap();
        p.output(b);
        assert!(matches!(s.run(&p), Err(CoreError::Engine(_))));
    }

    #[test]
    fn stored_outputs_persist_with_their_scheme() {
        let mut s = Session::builder().workers(2).block_size(8).build();
        s.bind("A", ramp(16, 16)).unwrap();
        let mut p = Program::new();
        let a = p.load("A", 16, 16, 1.0);
        let b = p.add(a, a).unwrap();
        p.store(b, "B");
        s.run(&p).unwrap();
        assert!(s.is_bound("B"));
        // Second program consuming B under its cached scheme must be free.
        let mut p2 = Program::new();
        let eb = p2.load("B", 16, 16, 1.0);
        let c = p2.cell_mul(eb, eb).unwrap();
        p2.output(c);
        let plan = s.plan_only(&p2).unwrap();
        assert_eq!(plan.comm_step_count(), 0, "{}", plan.explain(&p2));
    }

    #[test]
    fn scalars_flow_through_reductions() {
        let mut s = Session::builder().workers(2).block_size(4).build();
        s.bind("A", ramp(8, 8)).unwrap();
        let mut p = Program::new();
        let a = p.load("A", 8, 8, 1.0);
        let total = p.sum(a).unwrap();
        let scaled = p.scale(a, total).unwrap();
        p.output(scaled);
        s.run(&p).unwrap();
        let got = s.value(scaled).unwrap();
        let local = ramp(8, 8);
        let expect = local.scale(local.sum());
        assert_eq!(got.to_dense(), expect.to_dense());
    }

    #[test]
    fn random_matrices_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut s = Session::builder()
                .workers(2)
                .block_size(4)
                .seed(seed)
                .build();
            let mut p = Program::new();
            let w = p.random("W", 8, 8);
            let x = p.add(w, w).unwrap();
            p.output(x);
            s.run(&p).unwrap();
            s.value(x).unwrap().to_dense()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1).data(), run(2).data());
    }

    #[test]
    fn rlocal_uses_one_worker_and_no_comm_time() {
        let mut s = Session::builder()
            .system(SystemKind::RLocal)
            .workers(8) // ignored
            .block_size(8)
            .build();
        assert_eq!(s.workers(), 1);
        s.bind("A", ramp(16, 16)).unwrap();
        let mut p = Program::new();
        let a = p.load("A", 16, 16, 1.0);
        let b = p.matmul(a, a).unwrap();
        p.output(b);
        let report = s.run(&p).unwrap();
        assert_eq!(
            report.comm.total_bytes(),
            report
                .trace
                .steps
                .iter()
                .flat_map(|s| &s.spans)
                .filter(|s| s.op == "reduce")
                .map(|s| s.wire_bytes)
                .sum::<u64>(),
            "single worker moves no matrix bytes"
        );
    }

    #[test]
    fn storing_over_a_name_releases_the_old_entry() {
        let mut s = Session::builder().workers(2).block_size(8).build();
        s.bind("A", ramp(32, 32)).unwrap();
        let stats0 = s.shared_store().stats();
        // Re-bind a smaller matrix under the same name: resident bytes
        // must shrink, not accumulate (the PR-1-era leak).
        s.bind("A", ramp(8, 8)).unwrap();
        let stats1 = s.shared_store().stats();
        assert_eq!(stats1.entries, 1);
        assert!(stats1.bytes < stats0.bytes, "{stats1:?} vs {stats0:?}");
        assert_eq!(stats1.replaced, 1);
        // And drop_matrix releases eagerly too.
        assert!(s.drop_matrix("A"));
        assert!(!s.drop_matrix("A"));
        assert_eq!(s.shared_store().stats().bytes, 0);
        assert!(!s.is_bound("A"));
    }

    /// `x · A` with `x` a fresh random row: the plan wants `A` by column.
    fn row_times(name: &str, n: usize) -> (Program, Expr) {
        let mut p = Program::new();
        let a = p.load(name, n, n, 1.0);
        let x = p.random("x", 1, n);
        let y = p.matmul(x, a).unwrap();
        p.output(y);
        (p, a)
    }

    fn partitions(s: &Session, p: &Program, input: Expr) -> bool {
        let plan = s.plan_only(p).unwrap();
        plan.steps.iter().any(|st| {
            matches!(st, crate::plan::PlanStep::Partition { src, .. }
                if plan.nodes[*src].matrix == input.id)
        })
    }

    fn rid_of(s: &Session, name: &str) -> u64 {
        s.shared_store().peek(name).expect("resident").rid()
    }

    #[test]
    fn rebinding_identical_content_keeps_value_and_placement() {
        let mut s = Session::builder().workers(3).block_size(8).build();
        let a = ramp(24, 24);
        s.bind("A", a.clone()).unwrap();
        let (p, ea) = row_times("A", 24);
        assert!(partitions(&s, &p, ea), "a fresh bind is Hash-placed");
        s.run(&p).unwrap();
        let adopted = s.shared_store().scheme_of("A").unwrap();
        assert_ne!(adopted, PartitionScheme::Hash);
        let (rid, stats) = (rid_of(&s, "A"), s.shared_store().stats());

        // The same tiles by `Arc`, then equal tiles in fresh allocations.
        s.bind("A", a.clone()).unwrap();
        s.bind("A", ramp(24, 24)).unwrap();
        assert_eq!(rid_of(&s, "A"), rid);
        assert_eq!(s.shared_store().scheme_of("A"), Some(adopted));
        assert_eq!(s.shared_store().stats().inserts, stats.inserts);
        assert!(!partitions(&s, &p, ea), "the adopted placement is reused");
        let first = s.last_report().unwrap().comm.total_bytes();
        let second = s.run(&p).unwrap().comm.total_bytes();
        assert!(second < first, "{second} vs {first}: A must not move again");
        assert_eq!(rid_of(&s, "A"), rid);
    }

    #[test]
    fn rebinding_any_different_bit_replaces() {
        // All ones but the last cell.
        let with = |cols: usize, last: f64| {
            BlockedMatrix::from_fn(8, cols, 4, |i, j| if (i, j) == (7, 7) { last } else { 1.0 })
                .unwrap()
        };
        // The same cells, the last tile stored CSC in place of dense.
        let last_tile_sparse = {
            let m = with(8, 0.0);
            let mut tiles: Vec<_> = m.iter_blocks().map(|(_, _, t)| Arc::clone(t)).collect();
            let csc = dmac_matrix::CscBlock::from_dense(&tiles[3].to_dense());
            tiles[3] = Arc::new(dmac_matrix::Block::Sparse(csc));
            BlockedMatrix::from_blocks(8, 8, 4, tiles).unwrap()
        };
        let other_nan = f64::from_bits(f64::NAN.to_bits() ^ 1);
        let cases = [
            ("-0.0 for 0.0", with(8, 0.0), with(8, -0.0)),
            ("NaN payload", with(8, f64::NAN), with(8, other_nan)),
            ("representation", with(8, 0.0), last_tile_sparse),
            ("shape", with(8, 0.0), with(9, 0.0)),
        ];
        for (what, first, second) in cases {
            let mut s = Session::builder().workers(2).block_size(4).build();
            s.bind("A", first.clone()).unwrap();
            let (p, _) = row_times("A", 8);
            s.run(&p).unwrap();
            let rid = rid_of(&s, "A");
            assert_ne!(s.shared_store().scheme_of("A"), Some(PartitionScheme::Hash));
            // Sanity: the first content again is a no-op ...
            s.bind("A", first).unwrap();
            assert_eq!(rid_of(&s, "A"), rid, "{what}");
            // ... the near-identical one is a fresh Hash-placed load.
            s.bind("A", second.clone()).unwrap();
            assert_ne!(rid_of(&s, "A"), rid, "{what}");
            assert_eq!(
                s.shared_store().scheme_of("A"),
                Some(PartitionScheme::Hash),
                "{what}"
            );
            let held = s.env_value("A").unwrap();
            assert!(
                held.iter_blocks()
                    .all(|(bi, bj, t)| t.bits_eq(second.block_at(bi, bj))),
                "{what}: the store must hold the second content"
            );
        }
    }

    #[test]
    fn rebinding_over_another_block_size_replaces() {
        let mut s = Session::builder().workers(2).block_size(8).build();
        let coarse = ramp(16, 16);
        let fine = coarse.reblock(4).unwrap();
        s.bind_dist(
            "A",
            DistMatrix::from_blocked(&fine, PartitionScheme::Col, 2),
        )
        .unwrap();
        let rid = rid_of(&s, "A");
        s.bind("A", coarse).unwrap();
        assert_ne!(rid_of(&s, "A"), rid);
        assert_eq!(s.shared_store().peek("A").unwrap().block_size(), 8);
    }

    #[test]
    fn rebinding_a_spilled_entry_replaces() {
        let dir = std::env::temp_dir().join(format!("dmac-session-rebind-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = ramp(16, 16);
        let one = DistMatrix::from_blocked(&a, PartitionScheme::Hash, 2).logical_bytes();
        let store = SharedStore::with_capacity_and_disk(one, &dir).unwrap();
        let mut s = Session::builder()
            .workers(2)
            .block_size(8)
            .store(store.clone())
            .build();
        s.bind("A", a.clone()).unwrap();
        let rid = rid_of(&s, "A");
        s.bind("B", ramp(16, 16)).unwrap();
        assert!(store.is_spilled("A"));
        s.bind("A", a).unwrap();
        assert!(!store.is_spilled("A"));
        assert_ne!(rid_of(&s, "A"), rid);
        assert_eq!(
            store.stats().loads,
            0,
            "the blob is not read back to compare"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebinding_compares_against_what_the_shared_store_holds_now() {
        let store = SharedStore::new();
        let session = || {
            Session::builder()
                .workers(2)
                .block_size(8)
                .store(store.clone())
                .build()
        };
        let (mut a, mut b) = (session(), session());
        a.bind("A", ramp(16, 16)).unwrap();
        let rid = rid_of(&a, "A");
        // Another session replaces the entry between the two binds.
        let other = ramp(16, 16).scale(2.0);
        b.bind("A", other.clone()).unwrap();
        let theirs = rid_of(&a, "A");
        assert_ne!(theirs, rid);
        // Their content again is theirs to keep; ours replaces it.
        a.bind("A", other).unwrap();
        assert_eq!(rid_of(&a, "A"), theirs);
        a.bind("A", ramp(16, 16)).unwrap();
        assert_ne!(rid_of(&a, "A"), theirs);
        assert_eq!(
            a.env_value("A").unwrap().to_dense(),
            ramp(16, 16).to_dense()
        );
    }

    #[test]
    fn bind_dist_always_replaces() {
        let mut s = Session::builder().workers(2).block_size(8).build();
        let a = ramp(16, 16);
        s.bind("A", a.clone()).unwrap();
        let held = s.shared_store().peek("A").unwrap();
        let replaced = s.shared_store().stats().replaced;
        s.bind_dist("A", held.clone()).unwrap();
        assert_eq!(s.shared_store().stats().replaced, replaced + 1);
        let fresh = DistMatrix::from_blocked(&a, PartitionScheme::Row, 2);
        s.bind_dist("A", fresh.clone()).unwrap();
        assert_eq!(rid_of(&s, "A"), fresh.rid());
        assert_eq!(s.shared_store().scheme_of("A"), Some(PartitionScheme::Row));
    }

    #[test]
    fn systemml_s_keeps_the_value_but_its_cache_stays_hash() {
        let mut s = Session::builder()
            .system(SystemKind::SystemMlS)
            .workers(3)
            .block_size(8)
            .build();
        s.bind("A", ramp(24, 24)).unwrap();
        let rid = rid_of(&s, "A");
        let (p, ea) = row_times("A", 24);
        s.run(&p).unwrap();
        s.bind("A", ramp(24, 24)).unwrap();
        assert_eq!(rid_of(&s, "A"), rid);
        assert_eq!(s.shared_store().scheme_of("A"), Some(PartitionScheme::Hash));
        assert!(partitions(&s, &p, ea), "SystemML-S repartitions every run");
    }

    #[test]
    fn sessions_share_a_store() {
        let store = crate::store::SharedStore::new();
        let mut a = Session::builder()
            .workers(2)
            .block_size(8)
            .store(store.clone())
            .build();
        let b = Session::builder()
            .workers(2)
            .block_size(8)
            .store(store)
            .build();
        a.bind("A", ramp(16, 16)).unwrap();
        assert!(b.is_bound("A"));
        // A program run in session A that stores B is visible in session B.
        let mut p = Program::new();
        let ea = p.load("A", 16, 16, 1.0);
        let sum = p.add(ea, ea).unwrap();
        p.store(sum, "B");
        a.run(&p).unwrap();
        let got = b.env_value("B").unwrap();
        let local = ramp(16, 16);
        assert_eq!(got.to_dense(), local.add(&local).unwrap().to_dense());
    }

    #[test]
    fn transposed_value_retrieval() {
        let mut s = Session::builder().workers(2).block_size(4).build();
        s.bind("A", ramp(8, 6)).unwrap();
        let mut p = Program::new();
        let a = p.load("A", 8, 6, 1.0);
        let b = p.add(a, a).unwrap();
        p.output(b);
        s.run(&p).unwrap();
        let vt = s.value(b.t()).unwrap();
        assert_eq!(vt.rows(), 6);
        assert_eq!(vt.cols(), 8);
    }

    #[test]
    fn explain_names_a_rebuilt_copy() {
        // A serve-shaped GNMF iteration: the updated `H(b)` gives `H(c)`
        // back after the W-update's products read it, so `H(c)` is not held
        // from the H-update's end until the output reads it.
        let s = Session::builder().workers(4).block_size(16).build();
        let mut p = Program::new();
        let v = p.random("V", 160, 96);
        let w = p.random("W", 160, 8);
        let h = p.random("H", 8, 96);
        let wt_v = p.matmul(w.t(), v).unwrap();
        let wt_w = p.matmul(w.t(), w).unwrap();
        let wt_w_h = p.matmul(wt_w, h).unwrap();
        let h_num = p.cell_mul(h, wt_v).unwrap();
        let h = p.cell_div(h_num, wt_w_h).unwrap();
        let v_ht = p.matmul(v, h.t()).unwrap();
        let h_ht = p.matmul(h, h.t()).unwrap();
        let w_h_ht = p.matmul(w, h_ht).unwrap();
        let w_num = p.cell_mul(w, v_ht).unwrap();
        let w = p.cell_div(w_num, w_h_ht).unwrap();
        p.output(w);
        p.output(h);
        let text = s.explain(&p).unwrap();
        let line = text.lines().find(|l| l.contains("(re-derived; "));
        assert_eq!(
            line.map(str::trim),
            Some(
                "[ 10] extract     _t4(b) -> _t4(c) (re-derived; _t4(c) released at step 6) \
                 (consumes _t4(b))"
            ),
            "{text}"
        );
    }

    #[test]
    fn explain_names_the_first_placement_of_a_hash_placed_input() {
        let mut s = Session::builder().workers(4).block_size(16).build();
        let v = BlockedMatrix::from_fn(256, 192, 16, |i, j| {
            if (3 * i + 7 * j) % 10 == 0 {
                1.0 + (i % 5) as f64
            } else {
                0.0
            }
        })
        .unwrap();
        s.bind("V", v).unwrap();
        // One GNMF iteration (Code 1).
        let mut p = Program::new();
        let v = p.load("V", 256, 192, 0.1);
        let w = p.random("W", 256, 8);
        let h = p.random("H", 8, 192);
        let wt_v = p.matmul(w.t(), v).unwrap();
        let wt_w = p.matmul(w.t(), w).unwrap();
        let wt_w_h = p.matmul(wt_w, h).unwrap();
        let h_num = p.cell_mul(h, wt_v).unwrap();
        let h = p.cell_div(h_num, wt_w_h).unwrap();
        let v_ht = p.matmul(v, h.t()).unwrap();
        let h_ht = p.matmul(h, h.t()).unwrap();
        let w_h_ht = p.matmul(w, h_ht).unwrap();
        let w_num = p.cell_mul(w, v_ht).unwrap();
        let w = p.cell_div(w_num, w_h_ht).unwrap();
        p.output(w);
        p.output(h);

        // With `W` and `H` generated where their readers want them — `W`
        // broadcast, `H` by column, where first touch generated both
        // hash-placed and then moved them — the program leaves `V` where
        // its first reader, `Wᵀ %*% V`, wants it: by column.
        let text = s.explain(&p).unwrap();
        let lines: Vec<_> = text
            .lines()
            .filter(|l| l.starts_with("placement: "))
            .collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(
            lines[0].starts_with("placement: V → c (first touch c: "),
            "{}",
            lines[0]
        );
        assert!(lines[0].ends_with(" B)"), "{}", lines[0]);
        assert_eq!(
            lines[1..],
            [
                "placement: W → b (generated; first touch h→b: 65 536 B)",
                "placement: H → c (generated; first touch h→c: 12 288 B)",
            ]
        );

        // The run caches V by column; a cached placement is not searched.
        // A random source is generated afresh every run, so it still is.
        s.run(&p).unwrap();
        let text = s.explain(&p).unwrap();
        assert!(!text.contains("placement: V"), "{text}");
        assert_eq!(
            text.matches("(generated; first touch h→").count(),
            2,
            "{text}"
        );
    }

    #[test]
    fn explain_names_each_kept_descent_move() {
        // The serve workload's smallest GNMF script: the descent flips
        // `V %*% Hᵀ` to RMM2 in both W-updates, then re-places `W` and `H`.
        let script = "V = random(V, 96, 72)\nW = random(W, 96, 8)\nH = random(H, 8, 72)\n\
                      for (i in 0:1) {\n\
                      H = H * (W.t %*% V) / (W.t %*% W %*% H)\n\
                      W = W * (V %*% H.t) / (W %*% H %*% H.t)\n}\n\
                      store(W)\nstore(H)\n";
        let p = dmac_lang::parse_script(script).unwrap().program;
        let s = Session::builder().workers(4).block_size(16).build();
        let text = s.explain(&p).unwrap();
        let lines: Vec<_> = text
            .lines()
            .filter(|l| l.starts_with("search: ") || l.starts_with("descent: "))
            .collect();
        assert_eq!(
            lines,
            [
                "search: product seed 65 536 B → 47 104 B after 4 descent move(s)",
                "descent: op 5 RMM1 → RMM2 (−6 144 B)",
                "descent: op 15 RMM1 → RMM2 (−6 144 B)",
                "descent: W → b (−3 584 B)",
                "descent: H → c (−2 560 B)",
            ],
            "{text}"
        );
    }

    #[test]
    fn grouped_digits() {
        assert_eq!(grouped(0), "0");
        assert_eq!(grouped(999), "999");
        assert_eq!(grouped(1_000), "1 000");
        assert_eq!(grouped(46_976_208), "46 976 208");
    }
}
