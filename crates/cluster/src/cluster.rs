//! The simulated cluster: configuration, metering, failure injection, and
//! the communication primitives (`repartition`, `broadcast`) plus the three
//! distributed multiplication strategies (RMM1, RMM2, CPMM) and the
//! scheme-aligned cell-wise operators.
//!
//! ## Logical workers vs physical hosts
//!
//! The cluster separates *logical workers* (the `N` partitions every
//! [`DistMatrix`] and compute loop is keyed on) from *physical hosts* (the
//! machines that can die). Initially worker `w` runs on host `w`; when a
//! host is [`Cluster::decommission`]ed after a failure, its logical workers
//! are remapped round-robin onto the survivors. Because every numeric loop
//! stays keyed on logical workers, the f64 summation order — and therefore
//! the bit pattern of every result — is identical before and after
//! recovery; only the *cost model* changes (surviving hosts now run more
//! than one logical worker, so their compute time adds up).
//!
//! ## One local engine
//!
//! Every compute primitive has the shape of the paper's Figure 4: per
//! logical worker, a bag of independent tile tasks drained by `L` threads
//! (`Cluster::run_stage`), multiplies folding into pooled accumulators
//! through a [`crate::kernels::MulStage`] per worker — the same stage the
//! `dmac-workerd` daemon runs over its shard store.
//!
//! ## Fault handling
//!
//! Every primitive enters through `op_entry`, which checks host liveness
//! *before* any scheme or shape validation — a dead worker always surfaces
//! as [`ClusterError::WorkerLost`], never as a misleading validation error
//! — and then gives the seeded [`FaultInjector`] a chance to kill a host.
//! Metered transfers go through `Cluster::send`, which retries transient
//! failures up to the plan's attempt budget and writes what it moved, what
//! it wasted and the network seconds it charged into the primitive's open
//! span — the only place a moved byte is counted.

// Worker loops index several parallel per-worker structures by id; an
// iterator would obscure the symmetry.
#![allow(clippy::needless_range_loop)]
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use dmac_matrix::exec::{combine_partials, run_tasks, PoolStats, ResultBufferPool};
use dmac_matrix::{random_cell, Block, BlockedMatrix, DenseBlock, FusedOp, MatrixError};

use crate::comm::{CommKind, CommStats, NetworkModel, SimClock};
use crate::dist::{fresh_rid, DistMatrix, GridMeta, View};
use crate::error::{ClusterError, Result};
use crate::fault::{FaultEvent, FaultInjector, FaultPlan};
use crate::kernels::{self, MulStage};
use crate::partition::PartitionScheme;
use crate::trace::{OpSpan, TraceBuffer};
use crate::transport::{MoveItem, PartialDesc, Release, Stage, Transport, TransportStats};

/// One result tile of a stage, keyed by its block coordinates.
type KeyedTile = ((usize, usize), Arc<Block>);
/// One task of a cell-wise stage: an output key and the input tiles,
/// one per leaf, that it owns and drops once its output tile exists.
type AlignedTask = ((usize, usize), Vec<Arc<Block>>);
/// Per-logical-worker tile stores of a value under construction.
type Stores = Vec<HashMap<(usize, usize), Arc<Block>>>;

/// Static configuration of a simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// `N`/`K`: number of workers.
    pub workers: usize,
    /// `L`: local threads per worker.
    pub local_threads: usize,
    /// Network model converting metered bytes into simulated seconds.
    pub network: NetworkModel,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 4,
            local_threads: 8,
            network: NetworkModel::default(),
        }
    }
}

/// A simulated cluster: `N` logical workers, a span buffer that meters
/// every byte, and a simulated clock. All distributed operators live here
/// as methods.
///
/// ```
/// use dmac_cluster::{Cluster, ClusterConfig, PartitionScheme};
/// use dmac_matrix::BlockedMatrix;
///
/// let mut cl = Cluster::new(ClusterConfig::default());
/// let m = BlockedMatrix::from_fn(8, 8, 4, |i, j| (i * 8 + j) as f64).unwrap();
/// let row = cl.load(&m, PartitionScheme::Row);          // free initial load
/// let col = cl.repartition(row, PartitionScheme::Col, "m").unwrap(); // consumes `row`
/// assert!(cl.comm().shuffle_bytes() > 0);               // metered!
/// assert_eq!(col.to_blocked().unwrap().to_dense(), m.to_dense());
/// ```
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    clock: SimClock,
    /// Hosts currently down (includes every decommissioned host).
    failed: HashSet<usize>,
    /// Hosts permanently removed by recovery; they can never heal.
    decommissioned: HashSet<usize>,
    /// `assignment[w]` is the physical host running logical worker `w`.
    assignment: Vec<usize>,
    faults: FaultInjector,
    pool: ResultBufferPool,
    tracer: TraceBuffer,
    /// Optional physical backend mirroring every primitive (see
    /// [`crate::transport`]). The engine always consumes the in-process
    /// oracle's values; a mirror's state is shadow state proven
    /// byte-equal after each op. Without one nothing is captured.
    transport: Option<Box<dyn Transport>>,
    /// The primitive [`Cluster::admit`] let in ahead of its call.
    admitted: Option<&'static str>,
}

/// A primitive's span while it runs: opened at entry with its `op` and
/// start, its ledger fields written by [`Cluster::send`], then closed.
struct OpenSpan {
    wall0: Instant,
    pool0: PoolStats,
    span: OpSpan,
}

impl Cluster {
    /// Build a cluster from configuration.
    pub fn new(config: ClusterConfig) -> Cluster {
        Cluster {
            config,
            clock: SimClock::default(),
            failed: HashSet::new(),
            decommissioned: HashSet::new(),
            assignment: (0..config.workers).collect(),
            faults: FaultInjector::disabled(),
            pool: ResultBufferPool::new(2 * config.local_threads),
            tracer: TraceBuffer::new(),
            transport: None,
            admitted: None,
        }
    }

    /// Build a cluster with a fault plan installed.
    pub fn with_faults(config: ClusterConfig, plan: FaultPlan) -> Cluster {
        let mut cl = Cluster::new(config);
        cl.set_fault_plan(plan);
        cl
    }

    /// Build a cluster over an explicit transport backend (e.g. a real
    /// multi-process [`crate::transport::socket::SocketTransport`]).
    pub fn with_transport(config: ClusterConfig, mut transport: Box<dyn Transport>) -> Cluster {
        let mut cl = Cluster::new(config);
        transport.set_assignment(&cl.assignment);
        cl.transport = Some(transport);
        cl
    }

    /// The mirror's cumulative counters (all zero without one).
    pub fn transport_stats(&self) -> TransportStats {
        self.transport
            .as_ref()
            .map(|t| t.stats())
            .unwrap_or_default()
    }

    /// `"socket"` when real worker processes mirror the run, else `"sim"`.
    pub fn transport_name(&self) -> &'static str {
        if self.transport.is_some() {
            "socket"
        } else {
            "sim"
        }
    }

    /// Whether real worker processes mirror the run.
    pub fn transport_is_physical(&self) -> bool {
        self.transport.is_some()
    }

    /// Gather `m` from the mirror's *physical* stores, bypassing the
    /// oracle — the end-to-end proof that worker state matches. `None`
    /// without a mirror: there is no second copy to gather.
    pub fn gather_physical(&mut self, m: &DistMatrix) -> Result<Option<DistMatrix>> {
        self.transport.as_mut().map(|t| t.gather(m)).transpose()
    }

    /// Test hook: hard-kill a host's worker process without marking it
    /// dead (detection must flow through the liveness machinery).
    /// Returns false when there are no processes.
    pub fn debug_kill_host(&mut self, host: usize) -> bool {
        self.transport
            .as_mut()
            .is_some_and(|t| t.debug_kill_host(host))
    }

    /// Gracefully stop the mirror's worker processes. Errors if a
    /// child had to be killed (leak detection for smoke gates).
    pub fn shutdown_transport(&mut self) -> Result<()> {
        self.transport.as_mut().map_or(Ok(()), |t| t.shutdown())
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of logical workers (the paper's `N`). Stable across host
    /// failures — recovery remaps logical workers, it never shrinks `N`.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// The communication totals of every span recorded so far.
    pub fn comm(&self) -> CommStats {
        CommStats::of(self.tracer.spans())
    }

    /// The simulated clock so far.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Reset meters (between benchmark iterations). Drops recorded spans;
    /// buffer-pool statistics are cumulative and survive (the pool itself
    /// is a process-lifetime resource).
    pub fn reset_meters(&mut self) {
        self.clock = SimClock::default();
        self.tracer.clear();
    }

    /// Flight-recorder spans recorded since the last [`Cluster::reset_meters`].
    pub fn spans(&self) -> &[OpSpan] {
        self.tracer.spans()
    }

    /// Number of spans recorded so far (cheap high-water mark for callers
    /// that want to slice the buffer per plan step).
    pub fn span_count(&self) -> usize {
        self.tracer.len()
    }

    /// Re-flag every span from index `from` onward as recovery traffic
    /// (a failed attempt's partial work is superseded by recovery).
    pub fn mark_spans_recovery(&mut self, from: usize) {
        self.tracer.mark_recovery_from(from);
    }

    /// Enter / leave recovery mode: spans recorded while the flag is set
    /// are attributed to recovery, not steady-state execution.
    pub fn set_recovery_mode(&mut self, on: bool) {
        self.tracer.set_recovery_mode(on);
    }

    /// Cumulative result-buffer-pool statistics (hits = `reused`,
    /// misses = `allocated`).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Open `op`'s span at the current clocks / pool counters.
    fn span_open(&self, op: &'static str) -> OpenSpan {
        let start_sec = self.clock.total_sec();
        OpenSpan {
            wall0: Instant::now(),
            pool0: self.pool.stats(),
            span: OpSpan {
                op,
                start_sec,
                ..OpSpan::default()
            },
        }
    }

    /// Close `st` into its [`OpSpan`]: the simulated and wall time end
    /// here, and whatever `send` wrote into it is its ledger entry.
    fn close(
        &self,
        st: &OpenSpan,
        label: String,
        event_bytes: u64,
        io: Option<(Vec<u64>, Vec<u64>)>,
        blocks: usize,
    ) -> OpSpan {
        let p1 = self.pool.stats();
        let n = self.config.workers;
        let (sent, received) = io.unwrap_or_else(|| (vec![0; n], vec![0; n]));
        OpSpan {
            label,
            end_sec: self.clock.total_sec(),
            wall_sec: st.wall0.elapsed().as_secs_f64(),
            event_bytes,
            sent,
            received,
            blocks,
            pool_reused: p1.reused.saturating_sub(st.pool0.reused),
            pool_allocated: p1.allocated.saturating_sub(st.pool0.allocated),
            ..st.span.clone()
        }
    }

    /// The one epilogue of every primitive. Records the span opened by
    /// [`Cluster::span_open`] (its wall time ends here, before any
    /// mirroring), mirrors the primitive if there is a mirror — replays
    /// it, or settles the stage posted before the oracle computed it —
    /// asserts the mirror's payload receipt against the bytes `send`
    /// metered, stamps the receipt onto the span (without a mirror the
    /// simulator's own), then the observed nnz of `out`.
    #[allow(clippy::too_many_arguments)]
    fn finish_op(
        &mut self,
        st: OpenSpan,
        label: &str,
        event_bytes: u64,
        io: Option<(Vec<u64>, Vec<u64>)>,
        blocks: usize,
        out: Option<&DistMatrix>,
        mirror: impl FnOnce(&mut dyn Transport) -> Result<u64>,
    ) -> Result<()> {
        let (op, wire_bytes) = (st.span.op, st.span.wire_bytes);
        let span = self.close(&st, label.to_string(), event_bytes, io, blocks);
        self.tracer.record(span);
        let payload = match self.transport.as_deref_mut() {
            Some(t) => mirror(t)?,
            None => wire_bytes,
        };
        if payload != wire_bytes {
            return Err(ClusterError::TransportConformance {
                op,
                detail: format!(
                    "transport shipped {payload} payload bytes, oracle metered {wire_bytes}"
                ),
            });
        }
        self.tracer.annotate_last_transport(payload);
        if let Some(out) = out {
            self.tracer.annotate_last_nnz(out.nnz() as u64);
        }
        Ok(())
    }

    /// Install (or replace) a fault plan; resets the injector's stream and
    /// log.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultInjector::new(plan);
    }

    /// Every fault injected so far, in order.
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.faults.log()
    }

    /// Logical-worker → physical-host assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Hosts that are up (neither failed nor decommissioned), ascending.
    pub fn alive_hosts(&self) -> Vec<usize> {
        (0..self.config.workers)
            .filter(|h| !self.failed.contains(h))
            .collect()
    }

    /// Hosts permanently removed by recovery, ascending.
    pub fn decommissioned_hosts(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.decommissioned.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of distinct live hosts carrying logical workers (the real
    /// parallelism after remapping).
    fn host_parallelism(&self) -> usize {
        let distinct: HashSet<usize> = self.assignment.iter().copied().collect();
        distinct.len().max(1)
    }

    /// Mark a host as failed (failure injection for tests).
    pub fn fail_worker(&mut self, host: usize) {
        self.failed.insert(host);
    }

    /// Bring a failed host back. Decommissioned hosts are gone for good.
    pub fn heal_worker(&mut self, host: usize) {
        if !self.decommissioned.contains(&host) {
            self.failed.remove(&host);
        }
    }

    /// Error if the host running logical worker `w` is down.
    pub fn check_worker(&self, w: usize) -> Result<()> {
        let host = self.assignment[w];
        if self.failed.contains(&host) {
            Err(ClusterError::WorkerLost(host))
        } else {
            Ok(())
        }
    }

    fn check_all_workers(&self) -> Result<()> {
        for &host in &self.assignment {
            if self.failed.contains(&host) {
                return Err(ClusterError::WorkerLost(host));
            }
        }
        Ok(())
    }

    /// Uniform entry guard for every primitive: liveness is checked
    /// *before* any scheme/shape validation so a dead worker always
    /// surfaces as [`ClusterError::WorkerLost`] (the error the engine's
    /// recovery path understands), then the fault injector may take a host
    /// down at this op. A primitive that gets in has its span opened.
    fn op_entry(&mut self, op: &'static str) -> Result<OpenSpan> {
        match self.admitted.take() {
            Some(admitted) => assert_eq!(admitted, op, "admitted one primitive, entered another"),
            None => self.entry_checks(op)?,
        }
        Ok(self.span_open(op))
    }

    /// Run primitive `op`'s entry guard ahead of the call, which must come
    /// next and then skips it. A caller about to hand `op` its only handle
    /// to an operand admits it first, so a loss caught at entry, before
    /// any tile is touched, leaves the caller every operand whole.
    pub fn admit(&mut self, op: &'static str) -> Result<()> {
        self.entry_checks(op)?;
        self.admitted = Some(op);
        Ok(())
    }

    fn entry_checks(&mut self, op: &'static str) -> Result<()> {
        // Real backends detect death organically (closed connections,
        // stale heartbeats); fold those hosts into the same failure path
        // an injected fault uses.
        if let Some(t) = &mut self.transport {
            self.failed.extend(t.poll_liveness());
        }
        self.check_all_workers()?;
        let alive = self.alive_hosts();
        if let Some(victim) = self.faults.draw_op_kill(op, &alive) {
            self.failed.insert(victim);
            return Err(ClusterError::WorkerLost(victim));
        }
        Ok(())
    }

    /// Notify the cluster that plan stage `stage` begins. The fault
    /// injector may kill a host here; the kill is detected by the next
    /// primitive's liveness check, exactly like an executor loss between
    /// Spark stages.
    pub fn begin_stage(&mut self, stage: usize) {
        let alive = self.alive_hosts();
        if let Some(victim) = self.faults.draw_stage_kill(stage, &alive) {
            self.failed.insert(victim);
        }
    }

    /// Permanently remove a dead host and remap its logical workers
    /// round-robin onto the surviving hosts. Returns the remapped logical
    /// workers (whose in-memory tiles died with the host). Errors with
    /// [`ClusterError::NoSurvivors`] when no host is left.
    pub fn decommission(&mut self, host: usize) -> Result<Vec<usize>> {
        self.failed.insert(host);
        self.decommissioned.insert(host);
        let survivors = self.alive_hosts();
        if survivors.is_empty() {
            return Err(ClusterError::NoSurvivors);
        }
        let mut remapped = Vec::new();
        for (w, h) in self.assignment.iter_mut().enumerate() {
            if *h == host {
                *h = survivors[w % survivors.len()];
                remapped.push(w);
            }
        }
        if let Some(t) = &mut self.transport {
            t.host_down(host);
            t.set_assignment(&self.assignment);
        }
        Ok(remapped)
    }

    /// Meter a communication step into the open span `st` and charge the
    /// network model for it, retrying transient send failures up to the
    /// fault plan's attempt budget. Failed attempts burn wire time and
    /// retry bytes; exhausting the budget records the span with only its
    /// waste and surfaces [`ClusterError::SendFailed`].
    fn send(&mut self, st: &mut OpenSpan, kind: CommKind, label: String, bytes: u64) -> Result<()> {
        if bytes == 0 {
            // Nothing crosses the wire; the span still says it sent.
            st.span.comm = Some(kind);
            return Ok(());
        }
        let cost = self.config.network.transfer_time(bytes);
        let attempts = self.faults.max_send_attempts();
        for attempt in 1..=attempts {
            // Wire time is spent whether or not the attempt succeeds.
            self.clock.add_comm(cost);
            st.span.comm_sec += cost;
            if self.faults.draw_transient_send(&label, attempt) {
                st.span.retry_bytes += bytes;
                st.span.retries += 1;
                continue;
            }
            (st.span.comm, st.span.wire_bytes) = (Some(kind), bytes);
            return Ok(());
        }
        let span = self.close(st, label.clone(), 0, None, 0);
        self.tracer.record(span);
        Err(ClusterError::SendFailed { label, attempts })
    }

    /// Meter the re-read of durable source data during lineage recovery.
    /// Always recorded as a recovery span, whatever the current mode.
    pub fn charge_recovery(&mut self, label: impl Into<String>, bytes: u64) -> Result<()> {
        let mut st = self.span_open("refetch");
        let label = label.into();
        self.send(&mut st, CommKind::Recovery, label.clone(), bytes)?;
        let span = self.close(&st, label, bytes, None, 0);
        self.tracer.record(OpSpan {
            recovery: true,
            ..span
        });
        Ok(())
    }

    /// Charge measured local compute seconds (max across workers of a step)
    /// — inside a primitive, so its span's duration covers them.
    fn charge_compute(&mut self, sec: f64) {
        self.clock.add_compute(sec);
    }

    /// Charge per-logical-worker compute seconds: logical workers sharing a
    /// physical host run sequentially, so each host is charged the *sum* of
    /// its workers and the clock advances by the slowest host. This is how
    /// recovery's remapping shows up as compute overhead.
    fn charge_compute_workers(&mut self, secs: &[f64]) {
        let mut per_host: HashMap<usize, f64> = HashMap::new();
        for (w, &s) in secs.iter().enumerate() {
            *per_host.entry(self.assignment[w]).or_insert(0.0) += s;
        }
        let max = per_host.values().fold(0.0f64, |m, &v| m.max(v));
        self.clock.add_compute(max);
    }

    /// Load a local matrix onto the cluster under `scheme`. Loading is not
    /// metered (the paper's ledger starts after input load, matching
    /// Figure 6(b) which reports per-iteration traffic).
    pub fn load(&self, m: &BlockedMatrix, scheme: PartitionScheme) -> DistMatrix {
        DistMatrix::from_blocked(m, scheme, self.config.workers)
    }

    /// Make a `random` source on `meta`'s grid under `scheme`: cell
    /// `(i, j)` is [`dmac_matrix::random_cell`]`(seed, matrix, i, j)`.
    /// Unmetered, like [`Cluster::load`]; a mirror installs none of it —
    /// its workers generate the tiles they own from the same function
    /// ([`Transport::generate`]), proven by seal before first use.
    pub fn random(
        &mut self,
        meta: GridMeta,
        scheme: PartitionScheme,
        seed: u64,
        matrix: u32,
    ) -> Result<DistMatrix> {
        let cell = |i, j| random_cell(seed, matrix, i, j);
        let m = BlockedMatrix::from_fn(meta.rows, meta.cols, meta.block, cell)?;
        let dist = self.load(&m, scheme);
        if let Some(t) = &mut self.transport {
            t.generate(&dist, seed, matrix);
        }
        Ok(dist)
    }

    fn compat(&self, a: &DistMatrix, b: &DistMatrix) -> Result<()> {
        if a.workers() != b.workers() {
            return Err(ClusterError::WorkerCountMismatch(a.workers(), b.workers()));
        }
        if a.block_size() != b.block_size() {
            return Err(ClusterError::BlockGridMismatch {
                left: a.block_size(),
                right: b.block_size(),
            });
        }
        Ok(())
    }

    /// Shared body of the shuffle primitives (partition / broadcast /
    /// rehash): every tile of `m` lands on the workers `dests` names for
    /// its key (a worker keeps the first copy it is offered), copies that
    /// change worker are metered as `comm` traffic — rehash is unmetered
    /// and passes `None`, and its span carries no nnz stamp — and a mirror,
    /// if there is one, replays the explicit move list. Consumes `m`: its
    /// tiles are the output's, and its handle goes once the mirror has
    /// replayed the move from it.
    #[allow(clippy::too_many_arguments)]
    fn shuffle(
        &mut self,
        mut st: OpenSpan,
        label: &str,
        comm: Option<CommKind>,
        event_bytes: u64,
        m: DistMatrix,
        scheme: PartitionScheme,
        dests: impl Fn(usize, usize) -> std::ops::Range<usize>,
    ) -> Result<DistMatrix> {
        let (op, n) = (st.span.op, self.config.workers);
        let (mut moved, mut blocks) = (0u64, 0usize);
        let (mut sent, mut received) = (vec![0u64; n], vec![0u64; n]);
        let mut moves = self.transport.is_some().then(Vec::new);
        let mut stores: Stores = vec![HashMap::new(); n];
        for src_w in 0..n {
            for (&(bi, bj), tile) in m.worker_blocks(src_w) {
                for dest_w in dests(bi, bj) {
                    blocks += 1;
                    if stores[dest_w].contains_key(&(bi, bj)) {
                        continue;
                    }
                    let metered = comm.is_some() && dest_w != src_w;
                    if metered {
                        let b = tile.actual_bytes() as u64;
                        moved += b;
                        sent[src_w] += b;
                        received[dest_w] += b;
                    }
                    if let Some(moves) = &mut moves {
                        moves.push(MoveItem {
                            src_w,
                            dest_w,
                            bi,
                            bj,
                            metered,
                        });
                    }
                    stores[dest_w].insert((bi, bj), Arc::clone(tile));
                }
            }
        }
        if let Some(kind) = comm {
            self.send(&mut st, kind, format!("{op}({label})"), moved)?;
        }
        let out = DistMatrix::from_parts(*m.meta(), scheme, stores);
        let io = Some((sent, received));
        let stamped = comm.is_some().then_some(&out);
        self.finish_op(st, label, event_bytes, io, blocks, stamped, |t| {
            let moves = moves.expect("a mirrored shuffle captured its moves");
            t.move_tiles(op, &m, &out, &moves)
        })?;
        Ok(out)
    }

    /// The `partition` extended operator: repartition `m` to a Row or
    /// Column scheme. Every tile that changes owner is metered as shuffle
    /// traffic. Repartitioning from Broadcast is a local extract and free.
    /// Like every move, it consumes `m` (see [`Cluster::cells`]).
    pub fn repartition(
        &mut self,
        m: DistMatrix,
        target: PartitionScheme,
        label: &str,
    ) -> Result<DistMatrix> {
        let st = self.op_entry("partition")?;
        if !target.is_rc() {
            return Err(ClusterError::SchemeMismatch {
                expected: PartitionScheme::Row,
                actual: target,
                op: "repartition",
            });
        }
        if m.scheme() == target {
            // No event: the requirement is already satisfied (cost 0).
            let label = format!("{label} (noop)");
            self.finish_op(st, &label, 0, None, 0, Some(&m), |_| Ok(0))?;
            return Ok(m);
        }
        if m.scheme() == PartitionScheme::Broadcast {
            // Everything is already everywhere: a pure filter (cost 0).
            let out = m.extract_local(target)?;
            let label = format!("{label} (extract)");
            self.finish_local(st, &label, &m, &out)?;
            return Ok(out);
        }
        // The partition *event* re-keys every tile of `m` (Table 2 charges
        // |A|); the wire only carries the tiles that change owner.
        let (n, event) = (self.config.workers, m.logical_bytes());
        let comm = Some(CommKind::Shuffle);
        self.shuffle(st, label, comm, event, m, target, |bi, bj| {
            let owner = target.owner(bi, bj, n).expect("rc target");
            owner..owner + 1
        })
    }

    /// The `broadcast` extended operator: replicate `m` on every worker.
    /// Each worker must receive the tiles it does not already hold.
    /// Consumes `m`.
    pub fn broadcast(&mut self, m: DistMatrix, label: &str) -> Result<DistMatrix> {
        let st = self.op_entry("broadcast")?;
        if m.scheme() == PartitionScheme::Broadcast {
            let label = format!("{label} (noop)");
            self.finish_op(st, &label, 0, None, 0, Some(&m), |_| Ok(0))?;
            return Ok(m);
        }
        // The broadcast *event* replicates `m` on all N workers (Table 2
        // charges N·|A|); the wire skips the share each source already has.
        let n = self.config.workers;
        let event = (n as u64) * m.logical_bytes();
        let (comm, bc) = (Some(CommKind::Broadcast), PartitionScheme::Broadcast);
        self.shuffle(st, label, comm, event, m, bc, |_, _| 0..n)
    }

    /// Scatter a matrix back into Hash placement. This models SystemML-S
    /// writing every operator result into its hash-partitioned RDD cache;
    /// following the paper's cost accounting (which charges repartitions
    /// on the *input* side only), the movement is **not metered** — a
    /// deliberate, baseline-favouring simplification documented in
    /// DESIGN.md.
    pub fn rehash(&mut self, m: DistMatrix) -> Result<DistMatrix> {
        let st = self.op_entry("rehash")?;
        if m.scheme() == PartitionScheme::Hash {
            return Ok(m);
        }
        let (n, hash) = (self.config.workers, PartitionScheme::Hash);
        self.shuffle(st, "", None, 0, m, hash, |bi, bj| {
            let owner = hash.owner(bi, bj, n).expect("hash owner");
            owner..owner + 1
        })
    }

    /// Epilogue of the extracts (the `extract` operator, a repartition
    /// from Broadcast), whose output tiles stay on the worker their inputs
    /// were on: the mirror gets an unmetered same-worker move per tile of
    /// `out`.
    fn finish_local(
        &mut self,
        st: OpenSpan,
        label: &str,
        src: &DistMatrix,
        out: &DistMatrix,
    ) -> Result<()> {
        let (op, blocks) = (st.span.op, out.tile_count());
        self.finish_op(st, label, 0, None, blocks, Some(out), |t| {
            t.move_tiles(op, src, out, &same_worker_moves(out))
        })
    }

    /// The `extract` extended operator: local, free. Consumes `m`.
    pub fn extract(&mut self, m: DistMatrix, target: PartitionScheme) -> Result<DistMatrix> {
        let st = self.op_entry("extract")?;
        let out = m.extract_local(target)?;
        self.finish_local(st, "", &m, &out)?;
        Ok(out)
    }

    /// Release the physical shards of the dead value `rid` names on the
    /// mirror: a plan's `free` step, or a step that consumed its input.
    /// Local and communication-free; it draws no fault (so seeded fault
    /// sequences are unperturbed by liveness) and meters nothing.
    /// Idempotent: a value the mirror does not hold (never installed,
    /// already released) costs nothing, and one it holds is released at
    /// the head of the next exchange.
    pub fn free(&mut self, rid: u64) -> Result<()> {
        let st = self.span_open("free");
        self.finish_op(st, "", 0, None, 0, None, |t| {
            t.retain_values(&|r| r != rid, Release::Queued)?;
            Ok(0)
        })
    }

    /// Tell the mirror which values live handles still name, by rid: it
    /// releases every other value it holds — a displaced store entry, a
    /// superseded output, a replayed intermediate, whatever a failed run
    /// installed — in one exchange, with the releases a plan queued.
    /// Outside any plan, so unlike [`Cluster::free`] it records no span
    /// and waits for no next primitive; and best effort — a worker dying
    /// under it is the next primitive's liveness poll's to report, not
    /// garbage collection's.
    pub fn retain(&mut self, live: &HashSet<u64>) {
        if let Some(t) = &mut self.transport {
            let _ = t.retain_values(&|rid| live.contains(&rid), Release::Now);
        }
    }

    /// RMM1 (Figure 2): `A(b) × B(c) → AB(c)`. No communication during
    /// execution — each worker multiplies the full `A` against its own
    /// block-columns of `B`. A fused stage of one product leaf. Either
    /// operand may be a [`View`].
    pub fn rmm1<'v>(
        &mut self,
        a: impl Into<View<&'v DistMatrix>>,
        b: impl Into<View<&'v DistMatrix>>,
    ) -> Result<DistMatrix> {
        let out = PartitionScheme::Col;
        let rmm = [Rmm {
            a: a.into(),
            b: b.into(),
            out,
        }];
        self.cells("rmm1", "", Vec::new(), &rmm, &[FusedOp::Leaf(0)])
    }

    /// RMM2 (Figure 2): `A(r) × B(b) → AB(r)`. A fused stage of one
    /// product leaf.
    pub fn rmm2<'v>(
        &mut self,
        a: impl Into<View<&'v DistMatrix>>,
        b: impl Into<View<&'v DistMatrix>>,
    ) -> Result<DistMatrix> {
        let out = PartitionScheme::Row;
        let rmm = [Rmm {
            a: a.into(),
            b: b.into(),
            out,
        }];
        self.cells("rmm2", "", Vec::new(), &rmm, &[FusedOp::Leaf(0)])
    }

    fn require(&self, m: &DistMatrix, scheme: PartitionScheme, op: &'static str) -> Result<()> {
        if m.scheme() != scheme {
            return Err(ClusterError::SchemeMismatch {
                expected: scheme,
                actual: m.scheme(),
                op,
            });
        }
        Ok(())
    }

    /// The per-logical-worker stage loop of every compute primitive
    /// (Figure 4): `stage_of(w)` sets worker `w`'s stage up — what its
    /// tasks share, and the tasks — which then go through the `L`-thread
    /// task queue with the result buffer pool and each task's share of the
    /// `L` threads (`L ÷ tasks`, at least one: a lone tile folds in row
    /// bands) at hand; each worker is timed, set-up included, and the
    /// clock advances by the slowest *host*. Returns every worker's
    /// results in task order.
    fn run_stage<S: Sync, T: Send, R: Send>(
        &mut self,
        mut stage_of: impl FnMut(usize) -> Result<(S, Vec<T>)>,
        run: impl Fn((&ResultBufferPool, usize), &S, T) -> Result<R> + Sync,
    ) -> Result<Vec<Vec<R>>> {
        let (n, threads) = (self.config.workers, self.config.local_threads);
        let pool = &self.pool;
        let mut secs = vec![0.0f64; n];
        let mut per_worker = Vec::with_capacity(n);
        for w in 0..n {
            let t0 = Instant::now();
            let (stage, tasks) = stage_of(w)?;
            let share = (threads / tasks.len().max(1)).max(1);
            let results = run_tasks(threads, tasks, |t| run((pool, share), &stage, t));
            per_worker.push(results.into_iter().collect::<Result<Vec<R>>>()?);
            secs[w] = t0.elapsed().as_secs_f64();
        }
        self.charge_compute_workers(&secs);
        Ok(per_worker)
    }

    /// CPMM (Figure 2): `A(c) × B(r) → AB(r|c)`. Each worker computes a
    /// full-size partial from its slice of the shared dimension; partials
    /// are then shuffled to the owners under `out_scheme` and aggregated.
    /// The shuffle of the partial results is CPMM's communication cost
    /// (the paper charges `N × |AB|` for the output event). Either operand
    /// may be a view.
    pub fn cpmm<'v>(
        &mut self,
        a: impl Into<View<&'v DistMatrix>>,
        b: impl Into<View<&'v DistMatrix>>,
        out_scheme: PartitionScheme,
    ) -> Result<DistMatrix> {
        let (va, vb) = (a.into(), b.into());
        let mut st = self.op_entry("cpmm")?;
        let t0 = Instant::now();
        let ab = resolve([va, vb]);
        self.charge_compute(t0.elapsed().as_secs_f64() / self.host_parallelism() as f64);
        let (a, b) = (&*ab[0], &*ab[1]);
        self.compat(a, b)?;
        self.require(a, PartitionScheme::Col, "cpmm")?;
        self.require(b, PartitionScheme::Row, "cpmm")?;
        if !out_scheme.is_rc() {
            return Err(ClusterError::SchemeMismatch {
                expected: PartitionScheme::Row,
                actual: out_scheme,
                op: "cpmm",
            });
        }
        let meta = product_meta(a, b)?;
        let n = self.config.workers;
        let kb = a.meta().col_blocks;

        // Phase 1: per-worker partial products over the owned k-slices.
        // Accumulators come from the result buffer pool and every one is
        // returned to it below, so CPMM's acquire/release stays balanced.
        let partials = self.run_stage(
            |w| {
                let stage = MulStage::new(shard(a, w), shard(b, w), kb)?;
                Ok(((w, stage), grid_cells(&meta).collect()))
            },
            |local, (w, stage), (bi, bj)| {
                let shape = (meta.block_rows_of(bi), meta.block_cols_of(bj));
                Ok(((bi, bj), stage.partial(local, shape, (bi, bj), (*w, n))?))
            },
        )?;

        // Phase 2: shuffle partials to their owners and aggregate in
        // worker order (the fixed order keeps f64 summation deterministic).
        let mut moved: u64 = 0;
        let mut event: u64 = 0;
        let mut sent = vec![0u64; n];
        let mut received = vec![0u64; n];
        let mut descs: Option<Vec<PartialDesc>> = self.transport.is_some().then(Vec::new);
        let mut gathered: Vec<Vec<DenseBlock>> = grid_cells(&meta).map(|_| Vec::new()).collect();
        let t0 = Instant::now();
        for (w, found) in partials.into_iter().enumerate() {
            for ((bi, bj), p) in found {
                let Some(p) = p else { continue };
                let dest_w = out_scheme.owner(bi, bj, n).expect("rc scheme");
                let bytes = p.actual_bytes() as u64;
                // The CPMM output event ships every worker's full-size
                // partial (Table 2 charges N·|AB|), even the share that
                // happens to stay local.
                event += bytes;
                if let Some(descs) = &mut descs {
                    descs.push(PartialDesc {
                        bi,
                        bj,
                        src_w: w,
                        dest_w,
                        bytes,
                    });
                }
                if dest_w != w {
                    moved += bytes;
                    sent[w] += bytes;
                    received[dest_w] += bytes;
                }
                gathered[bi * meta.col_blocks + bj].push(p);
            }
        }
        let mut stores: Stores = vec![HashMap::new(); n];
        for ((bi, bj), parts) in grid_cells(&meta).zip(gathered) {
            let shape = (meta.block_rows_of(bi), meta.block_cols_of(bj));
            let dest_w = out_scheme.owner(bi, bj, n).expect("rc scheme");
            stores[dest_w].insert((bi, bj), Arc::new(combine_partials(shape, &parts)?));
            for p in parts {
                self.pool.release(p);
            }
        }
        self.charge_compute(t0.elapsed().as_secs_f64() / self.host_parallelism() as f64);
        self.send(&mut st, CommKind::Shuffle, "cpmm-output".into(), moved)?;

        let blocks = meta.row_blocks * meta.col_blocks;
        let io = Some((sent, received));
        let out = DistMatrix::from_parts(meta, out_scheme, stores);
        self.finish_op(st, "", event, io, blocks, Some(&out), |t| {
            t.run_cpmm(va, vb, &out, &descs.expect("mirror implies a partial list"))
        })?;
        Ok(out)
    }

    /// Operands of a scheme-aligned cell-wise primitive must share grid,
    /// shape and a Row/Column/Broadcast scheme.
    fn aligned(&self, a: &DistMatrix, b: &DistMatrix, op: &'static str) -> Result<()> {
        self.compat(a, b)?;
        if a.scheme() != b.scheme() || a.scheme() == PartitionScheme::Hash {
            return Err(ClusterError::SchemeMismatch {
                expected: a.scheme(),
                actual: b.scheme(),
                op,
            });
        }
        if a.rows() != b.rows() || a.cols() != b.cols() {
            return Err(ClusterError::Matrix(MatrixError::DimensionMismatch {
                op,
                left: (a.rows(), a.cols()),
                right: (b.rows(), b.cols()),
            }));
        }
        Ok(())
    }

    /// The scheme-aligned per-tile primitive (§3.1: communication-free,
    /// Table 2 cost 0) — the Row template of operator fusion: every worker
    /// runs, per output tile it owns, the post-order cell-wise program
    /// `prog` over its own tiles of `leaves`, then the tiles of `rmms` at
    /// that coordinate, each folded there ([`kernels::fused_tile`]). The
    /// leaves and products share one Row/Column/Broadcast scheme — a lone
    /// leaf may sit in any — and the output takes it. A binary operator is
    /// `[Leaf(0), Leaf(1), op]`, a scalar map `[Leaf(0), Scale(c)]`, a
    /// multiply one product and `[Leaf(0)]`, a planner-fused chain
    /// whatever the planner built: one output tile each, no intermediate
    /// [`DistMatrix`]. The span meters zero wire and event bytes under
    /// `op` / `label` (`"add"`, `"map"` + `"scale"`, `"rmm2"`, `"fused"` +
    /// the subsumed operators), so fusing never changes the cost-model
    /// ledger.
    ///
    /// Consumes `leaves`, like every tile-wise primitive: each task owns
    /// its input tiles and drops them once its output tile exists, so a
    /// leaf no one else holds is freed tile by tile while the stage runs.
    /// A leaf the caller still holds elsewhere only loses a reference. A
    /// product's operands are only read: an operand tile feeds many
    /// output tiles.
    pub fn cells(
        &mut self,
        op: &'static str,
        label: &str,
        leaves: Vec<View<DistMatrix>>,
        rmms: &[Rmm<'_>],
        prog: &[FusedOp],
    ) -> Result<DistMatrix> {
        let st = self.op_entry(op)?;
        dmac_matrix::fused::validate_program(prog, leaves.len() + rmms.len())?;
        // The oracle resolves every view here, each tile once per
        // primitive; a mirror is handed the views as held.
        let held = self.transport.is_some().then(|| leaves.clone());
        let t0 = Instant::now();
        let mut leaves: Vec<DistMatrix> = (leaves.into_iter())
            .map(|v| v.m.resolve(v.transposed))
            .collect();
        let operands = resolve(rmms.iter().flat_map(|rmm| [rmm.a, rmm.b]));
        self.charge_compute(t0.elapsed().as_secs_f64() / self.host_parallelism() as f64);
        let resolved: Vec<Rmm<'_>> = (rmms.iter().zip(operands.chunks_exact(2)))
            .map(|(rmm, ab)| Rmm {
                a: View::from(&*ab[0]),
                b: View::from(&*ab[1]),
                out: rmm.out,
            })
            .collect();
        let grids = (resolved.iter())
            .map(|rmm| self.product(op, rmm))
            .collect::<Result<Vec<GridMeta>>>()?;
        let n = self.config.workers;
        // Every output tile is computed where the first leaf's is, or, with
        // no leaf, where the output scheme puts it.
        let (meta, scheme, keys) = match (leaves.first(), resolved.first()) {
            (Some(first), _) => {
                let keys = (0..first.workers())
                    .map(|w| first.worker_blocks(w).keys().copied().collect())
                    .collect();
                (*first.meta(), first.scheme(), keys)
            }
            (None, Some(rmm)) => {
                let meta = grids[0];
                let mut owned: Vec<Vec<_>> = vec![Vec::new(); n];
                for (bi, bj) in grid_cells(&meta) {
                    owned[rmm.out.owner(bi, bj, n).expect("rc scheme")].push((bi, bj));
                }
                (meta, rmm.out, owned)
            }
            (None, None) => {
                let err = MatrixError::MalformedSparse(format!("{op}: no operands"));
                return Err(ClusterError::Matrix(err));
            }
        };
        if let Some((first, rest)) = leaves.split_first() {
            for m in rest {
                self.aligned(first, m, op)?;
            }
        }
        for (rmm, grid) in resolved.iter().zip(&grids) {
            if rmm.out != scheme {
                return Err(ClusterError::SchemeMismatch {
                    expected: scheme,
                    actual: rmm.out,
                    op,
                });
            }
            if *grid != meta {
                return Err(ClusterError::Matrix(MatrixError::DimensionMismatch {
                    op,
                    left: (meta.rows, meta.cols),
                    right: (grid.rows, grid.cols),
                }));
            }
        }
        // Who computes which tile is known before any is: the workers
        // compute while the oracle does, and are checked after.
        let rid = fresh_rid();
        let posted = self.transport.as_deref_mut().map_or(Ok(()), |t| {
            let views: Vec<_> = held.iter().flatten().map(View::borrowed).collect();
            t.post_stage(&Stage {
                op,
                prog,
                leaves: &views,
                rmms,
                rid,
                meta,
                keys: &keys,
            })
        });
        drop(held);
        let tiles = self.run_stage(
            |w| {
                let stages = (resolved.iter())
                    .map(|rmm| {
                        let kb = rmm.a.m.meta().col_blocks;
                        MulStage::new(shard(rmm.a.m, w), shard(rmm.b.m, w), kb)
                    })
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                Ok((stages, aligned_tasks(&mut leaves, w, &keys[w], op)?))
            },
            |local, stages, (k, tiles): AlignedTask| {
                let tiles: Vec<&Block> = tiles.iter().map(|t| &**t).collect();
                let shape = (meta.block_rows_of(k.0), meta.block_cols_of(k.1));
                let tile = kernels::fused_tile(local, prog, &tiles, stages, shape, k)?;
                Ok((k, Arc::new(tile)))
            },
        )?;
        let out = DistMatrix::from_minted(rid, meta, scheme, into_stores(tiles));
        self.finish_op(st, label, 0, None, out.tile_count(), Some(&out), |t| {
            posted?;
            t.settle_stage(&out).map(|()| 0)
        })?;
        Ok(out)
    }

    /// The grid of a local product's output, its operands checked against
    /// what its strategy requires: the operand on the output's side shares
    /// its scheme, the other is Broadcast, so every result tile is
    /// computable on the worker that owns it with zero communication.
    fn product(&self, op: &'static str, rmm: &Rmm<'_>) -> Result<GridMeta> {
        let (a, b) = (rmm.a.m, rmm.b.m);
        self.compat(a, b)?;
        let (need_a, need_b) = match rmm.out {
            PartitionScheme::Col => (PartitionScheme::Broadcast, PartitionScheme::Col),
            PartitionScheme::Row => (PartitionScheme::Row, PartitionScheme::Broadcast),
            other => {
                return Err(ClusterError::SchemeMismatch {
                    expected: PartitionScheme::Row,
                    actual: other,
                    op,
                })
            }
        };
        self.require(a, need_a, op)?;
        self.require(b, need_b, op)?;
        product_meta(a, b)
    }

    /// Distributed reduction: each worker folds its owned tiles in sorted
    /// key order into one partial; the driver combines the `N` partials in
    /// ascending worker order (metered as `8·N` shuffle bytes — scalars,
    /// negligible, but kept honest). The fixed fold orders make the result
    /// bit-reproducible, which is what lets a physical backend prove its
    /// partials equal the oracle's.
    pub fn reduce(&mut self, m: &DistMatrix, kind: ReduceKind) -> Result<f64> {
        let mut st = self.op_entry("reduce")?;
        let n = self.config.workers;
        let t0 = Instant::now();
        let broadcast = m.scheme() == PartitionScheme::Broadcast;
        let mut partials = vec![0.0f64; n];
        let mut blocks = 0usize;
        for w in 0..n {
            // Under Broadcast every worker has everything; only worker 0's
            // fold enters the total.
            if broadcast && w != 0 {
                continue;
            }
            let store = m.worker_blocks(w);
            let mut keys: Vec<(usize, usize)> = store.keys().copied().collect();
            keys.sort_unstable();
            blocks += keys.len();
            partials[w] =
                kernels::reduce_shard(kind, keys.iter().map(|k| &**store.get(k).expect("own key")));
        }
        let total = kernels::reduce_combine(broadcast, &partials);
        self.charge_compute(t0.elapsed().as_secs_f64() / self.host_parallelism() as f64);
        self.send(&mut st, CommKind::Shuffle, "reduce".into(), 8 * n as u64)?;
        // Each worker ships one 8-byte partial to the driver; the cost
        // model charges reductions nothing (event 0).
        let io = Some((vec![8u64; n], vec![0u64; n]));
        self.finish_op(st, "", 0, io, blocks, None, |t| {
            t.run_reduce(kind, m, &partials)
        })?;
        Ok(kind.finish(total))
    }
}

/// Result grid of `a · b`, or the dimension error.
fn product_meta(a: &DistMatrix, b: &DistMatrix) -> Result<GridMeta> {
    if a.cols() != b.rows() {
        return Err(ClusterError::Matrix(MatrixError::DimensionMismatch {
            op: "multiply",
            left: (a.rows(), a.cols()),
            right: (b.rows(), b.cols()),
        }));
    }
    Ok(GridMeta::new(a.rows(), b.cols(), a.block_size()))
}

/// The oracle's side of borrowed views: each operand as its primitive
/// reads it — the held value, or its transpose in scratch
/// ([`DistMatrix::resolve`], each distinct tile transposed once).
fn resolve<'v>(views: impl IntoIterator<Item = View<&'v DistMatrix>>) -> Vec<Cow<'v, DistMatrix>> {
    (views.into_iter())
        .map(|v| match v.transposed {
            true => Cow::Owned(v.m.clone().resolve(true)),
            false => Cow::Borrowed(v.m),
        })
        .collect()
}

/// Worker `w`'s tiles of `m`, as a [`MulStage`] takes a shard.
fn shard(m: &DistMatrix, w: usize) -> impl Iterator<Item = ((usize, usize), &Block)> + Clone {
    m.worker_blocks(w).iter().map(|(&k, t)| (k, &**t))
}

/// An unmetered move of every tile of `keyed` to the worker that holds
/// it: a local primitive's move list, keyed by the source coordinates.
fn same_worker_moves(keyed: &DistMatrix) -> Vec<MoveItem> {
    let mut moves = Vec::with_capacity(keyed.tile_count());
    for w in 0..keyed.workers() {
        for &(bi, bj) in keyed.worker_blocks(w).keys() {
            moves.push(MoveItem {
                src_w: w,
                dest_w: w,
                bi,
                bj,
                metered: false,
            });
        }
    }
    moves
}

/// Every tile coordinate of a grid, row-major.
fn grid_cells(meta: &GridMeta) -> impl Iterator<Item = (usize, usize)> {
    let cb = meta.col_blocks;
    (0..meta.row_blocks).flat_map(move |bi| (0..cb).map(move |bj| (bi, bj)))
}

/// Per-worker keyed result tiles of a stage, as stores.
fn into_stores(tiles: Vec<Vec<KeyedTile>>) -> Stores {
    tiles.into_iter().map(HashMap::from_iter).collect()
}

/// Worker `w`'s tasks of a stage over `leaves`, drained from them: per
/// output key it computes, the key and the aligned tile of every leaf, in
/// leaf order.
fn aligned_tasks(
    leaves: &mut [DistMatrix],
    w: usize,
    keys: &[(usize, usize)],
    op: &str,
) -> Result<Vec<AlignedTask>> {
    let mut stores: Vec<_> = leaves.iter_mut().map(|m| m.take_worker_blocks(w)).collect();
    let mut tasks = Vec::with_capacity(keys.len());
    for &(bi, bj) in keys {
        let mut tiles = Vec::with_capacity(stores.len());
        for store in stores.iter_mut() {
            tiles.push(store.remove(&(bi, bj)).ok_or_else(|| {
                ClusterError::Matrix(MatrixError::MalformedSparse(format!(
                    "{op}: tile ({bi},{bj}) missing on worker {w}"
                )))
            })?);
        }
        tasks.push(((bi, bj), tiles));
    }
    Ok(tasks)
}

/// A replication-based product a stage folds per output tile (Figure 2),
/// named by the scheme its output takes: RMM1 `A(b) × B(c) → AB(c)`, or
/// RMM2 `A(r) × B(b) → AB(r)` — each operand as the view reads it.
#[derive(Debug, Clone, Copy)]
pub struct Rmm<'a> {
    /// The left operand.
    pub a: View<&'a DistMatrix>,
    /// The right operand.
    pub b: View<&'a DistMatrix>,
    /// The output's scheme: Column (RMM1) or Row (RMM2).
    pub out: PartitionScheme,
}

/// Distributed reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceKind {
    /// Sum of all cells.
    Sum,
    /// Frobenius norm.
    Norm2,
}

impl ReduceKind {
    /// Raw per-tile contribution (before [`ReduceKind::finish`]). Public
    /// so the worker daemon folds tiles with the identical operation.
    pub fn fold_tile(self, tile: &Block) -> f64 {
        match self {
            ReduceKind::Sum => tile.sum(),
            ReduceKind::Norm2 => tile.sum_sq(),
        }
    }

    /// Finalize the combined raw total.
    pub fn finish(self, total: f64) -> f64 {
        match self {
            ReduceKind::Sum => total,
            ReduceKind::Norm2 => total.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            workers: n,
            local_threads: 2,
            network: NetworkModel::default(),
        })
    }

    fn sample(rows: usize, cols: usize, block: usize) -> BlockedMatrix {
        BlockedMatrix::from_fn(rows, cols, block, |i, j| ((i * cols + j) % 5) as f64 - 1.0).unwrap()
    }

    /// The one-operator program of an aligned binary.
    fn binary(op: FusedOp) -> [FusedOp; 3] {
        [FusedOp::Leaf(0), FusedOp::Leaf(1), op]
    }

    #[test]
    fn repartition_row_to_col_meters_bytes() {
        let mut cl = cluster(4);
        let m = sample(16, 16, 4);
        let r = cl.load(&m, PartitionScheme::Row);
        let before = cl.comm().total_bytes();
        let c = cl
            .repartition(r.clone(), PartitionScheme::Col, "m")
            .unwrap();
        c.validate().unwrap();
        assert_eq!(c.scheme(), PartitionScheme::Col);
        let moved = cl.comm().total_bytes() - before;
        // 4x4 grid of 4 workers: each tile moves unless row owner == col owner
        // (bi%4 == bj%4 on the diagonal): 12 of 16 tiles move.
        let tile_bytes = m.block_at(0, 0).actual_bytes() as u64;
        assert_eq!(moved, 12 * tile_bytes);
        assert_eq!(c.to_blocked().unwrap().to_dense(), m.to_dense());
    }

    #[test]
    fn repartition_same_scheme_is_free() {
        let mut cl = cluster(4);
        let m = sample(8, 8, 4);
        let r = cl.load(&m, PartitionScheme::Row);
        let r2 = cl
            .repartition(r.clone(), PartitionScheme::Row, "m")
            .unwrap();
        assert_eq!(cl.comm().total_bytes(), 0);
        assert_eq!(r2.scheme(), PartitionScheme::Row);
    }

    #[test]
    fn repartition_from_broadcast_is_free_extract() {
        let mut cl = cluster(2);
        let m = sample(8, 8, 4);
        let b = cl.load(&m, PartitionScheme::Broadcast);
        let r = cl
            .repartition(b.clone(), PartitionScheme::Row, "m")
            .unwrap();
        assert_eq!(cl.comm().total_bytes(), 0);
        r.validate().unwrap();
    }

    #[test]
    fn broadcast_meters_replication_bytes() {
        let mut cl = cluster(4);
        let m = sample(16, 16, 4);
        let r = cl.load(&m, PartitionScheme::Row);
        let b = cl.broadcast(r.clone(), "m").unwrap();
        b.validate().unwrap();
        // every worker needs the 3/4 of tiles it does not hold
        let total = m.actual_bytes() as u64;
        assert_eq!(cl.comm().broadcast_bytes(), 3 * total);
        assert_eq!(b.to_blocked().unwrap().to_dense(), m.to_dense());
    }

    #[test]
    fn rmm1_matches_reference_and_is_comm_free() {
        let mut cl = cluster(3);
        let a = sample(10, 8, 4);
        let b = sample(8, 12, 4);
        let da = cl.load(&a, PartitionScheme::Broadcast);
        let db = cl.load(&b, PartitionScheme::Col);
        let c = cl.rmm1(&da, &db).unwrap();
        assert_eq!(c.scheme(), PartitionScheme::Col);
        c.validate().unwrap();
        assert_eq!(cl.comm().total_bytes(), 0);
        assert_eq!(
            c.to_blocked().unwrap().to_dense(),
            a.matmul_reference(&b).unwrap().to_dense()
        );
    }

    #[test]
    fn rmm2_matches_reference() {
        let mut cl = cluster(3);
        let a = sample(10, 8, 4);
        let b = sample(8, 12, 4);
        let da = cl.load(&a, PartitionScheme::Row);
        let db = cl.load(&b, PartitionScheme::Broadcast);
        let c = cl.rmm2(&da, &db).unwrap();
        assert_eq!(c.scheme(), PartitionScheme::Row);
        c.validate().unwrap();
        assert_eq!(cl.comm().total_bytes(), 0);
        assert_eq!(
            c.to_blocked().unwrap().to_dense(),
            a.matmul_reference(&b).unwrap().to_dense()
        );
    }

    #[test]
    fn rmm_scheme_requirements_enforced() {
        let mut cl = cluster(2);
        let a = sample(4, 4, 2);
        let da = cl.load(&a, PartitionScheme::Row);
        let db = cl.load(&a, PartitionScheme::Col);
        assert!(matches!(
            cl.rmm1(&da, &db),
            Err(ClusterError::SchemeMismatch { op: "rmm1", .. })
        ));
        assert!(matches!(
            cl.rmm2(&da, &db),
            Err(ClusterError::SchemeMismatch { op: "rmm2", .. })
        ));
    }

    /// A shard that lost its tiles (its host died) is the missing tile of
    /// the first term that needs it, on every multiply.
    #[test]
    fn multiplies_name_the_missing_panel() {
        let mut cl = cluster(2);
        let (a, b) = (sample(6, 8, 2), sample(8, 4, 2));
        let missing = |k| Err(ClusterError::Matrix(MatrixError::MissingTile { k }));
        let mut a_bc = cl.load(&a, PartitionScheme::Broadcast);
        a_bc.drop_workers(&[1]);
        let b_col = cl.load(&b, PartitionScheme::Col);
        assert_eq!(cl.rmm1(&a_bc, &b_col).map(drop), missing(0));
        let a_row = cl.load(&a, PartitionScheme::Row);
        let mut b_bc = cl.load(&b, PartitionScheme::Broadcast);
        b_bc.drop_workers(&[0]);
        assert_eq!(cl.rmm2(&a_row, &b_bc).map(drop), missing(0));
        // CPMM's worker 1 folds k = 1, 3: its first term is k = 1.
        let a_col = cl.load(&a, PartitionScheme::Col);
        let mut b_row = cl.load(&b, PartitionScheme::Row);
        b_row.drop_workers(&[1]);
        let out = cl.cpmm(&a_col, &b_row, PartitionScheme::Row);
        assert_eq!(out.map(drop), missing(1));
    }

    #[test]
    fn cpmm_matches_reference_both_outputs() {
        for out in [PartitionScheme::Row, PartitionScheme::Col] {
            let mut cl = cluster(3);
            let a = sample(10, 9, 3);
            let b = sample(9, 7, 3);
            let da = cl.load(&a, PartitionScheme::Col);
            let db = cl.load(&b, PartitionScheme::Row);
            let c = cl.cpmm(&da, &db, out).unwrap();
            assert_eq!(c.scheme(), out);
            c.validate().unwrap();
            assert!(cl.comm().shuffle_bytes() > 0, "cpmm must shuffle partials");
            assert_eq!(
                c.to_blocked().unwrap().to_dense(),
                a.matmul_reference(&b).unwrap().to_dense()
            );
        }
    }

    #[test]
    fn cellwise_requires_matching_schemes() {
        let mut cl = cluster(2);
        let a = sample(6, 6, 3);
        let da = cl.load(&a, PartitionScheme::Row);
        let db = cl.load(&a, PartitionScheme::Col);
        assert!(cl
            .cells(
                "add",
                "",
                vec![da.clone().into(), db.clone().into()],
                &[],
                &binary(FusedOp::Add)
            )
            .is_err());
        let db2 = cl.load(&a, PartitionScheme::Row);
        let c = cl
            .cells(
                "add",
                "",
                vec![da.clone().into(), db2.clone().into()],
                &[],
                &binary(FusedOp::Add),
            )
            .unwrap();
        assert_eq!(cl.comm().total_bytes(), 0);
        assert_eq!(
            c.to_blocked().unwrap().to_dense(),
            a.add(&a).unwrap().to_dense()
        );
    }

    #[test]
    fn cellwise_all_ops_match_local() {
        let mut cl = cluster(2);
        let a = sample(6, 6, 3);
        let b = BlockedMatrix::from_fn(6, 6, 3, |i, j| 1.0 + ((i + j) % 3) as f64).unwrap();
        let da = cl.load(&a, PartitionScheme::Col);
        let db = cl.load(&b, PartitionScheme::Col);
        for (name, op, expect) in [
            ("add", FusedOp::Add, a.add(&b).unwrap()),
            ("sub", FusedOp::Sub, a.sub(&b).unwrap()),
            ("cell_mul", FusedOp::CellMul, a.cell_mul(&b).unwrap()),
            ("cell_div", FusedOp::CellDiv, a.cell_div(&b).unwrap()),
        ] {
            let c = cl
                .cells(
                    name,
                    "",
                    vec![da.clone().into(), db.clone().into()],
                    &[],
                    &binary(op),
                )
                .unwrap();
            assert_eq!(cl.spans().last().unwrap().op, name);
            assert_eq!(c.to_blocked().unwrap().to_dense(), expect.to_dense());
        }
    }

    #[test]
    fn unary_scales_everywhere() {
        let mut cl = cluster(2);
        let a = sample(4, 4, 2);
        let da = cl.load(&a, PartitionScheme::Broadcast);
        let prog = [FusedOp::Leaf(0), FusedOp::Scale(3.0)];
        let c = cl
            .cells("map", "scale", vec![da.clone().into()], &[], &prog)
            .unwrap();
        c.validate().unwrap();
        assert_eq!(c.scheme(), PartitionScheme::Broadcast);
        assert_eq!(c.to_blocked().unwrap().to_dense(), a.scale(3.0).to_dense());
    }

    #[test]
    fn mirrorless_cluster_captures_nothing_and_echoes_wire_bytes() {
        let mut cl = cluster(3);
        assert_eq!(cl.transport_name(), "sim");
        assert!(!cl.transport_is_physical());
        let (a, b) = (sample(12, 9, 3), sample(9, 12, 3));
        let hashed = cl.load(&a, PartitionScheme::Hash);
        let a_col = cl
            .repartition(hashed.clone(), PartitionScheme::Col, "a")
            .unwrap();
        let a_bc = cl.broadcast(a_col.clone(), "a").unwrap();
        let b_col = cl.load(&b, PartitionScheme::Col);
        let ab = cl.rmm1(&a_bc, &b_col).unwrap();
        let b_row = cl.load(&b, PartitionScheme::Row);
        let g = cl.cpmm(&a_col, &b_row, PartitionScheme::Row).unwrap();
        cl.reduce(&g, ReduceKind::Sum).unwrap();
        assert_eq!(
            ab.to_blocked().unwrap().to_dense(),
            g.to_blocked().unwrap().to_dense()
        );
        assert_eq!(cl.gather_physical(&g).unwrap().map(|m| m.rid()), None);
        cl.free(ab.rid()).unwrap();
        assert_eq!(cl.transport_stats().resident_values, 0, "nothing physical");

        let ops: Vec<&str> = cl.spans().iter().map(|s| s.op).collect();
        assert_eq!(
            ops,
            ["partition", "broadcast", "rmm1", "cpmm", "reduce", "free"]
        );
        assert!(cl.spans().iter().any(|s| s.wire_bytes > 0));
        for s in cl.spans() {
            assert_eq!(s.transport_bytes, s.wire_bytes, "{}", s.op);
        }
        assert_eq!(cl.transport_stats(), TransportStats::default());
    }

    #[test]
    fn reduce_sum_and_norm() {
        let mut cl = cluster(3);
        let a = sample(5, 5, 2);
        for scheme in [
            PartitionScheme::Row,
            PartitionScheme::Col,
            PartitionScheme::Broadcast,
        ] {
            let d = cl.load(&a, scheme);
            let s = cl.reduce(&d, ReduceKind::Sum).unwrap();
            assert!((s - a.sum()).abs() < 1e-9, "scheme {scheme}");
            let n = cl.reduce(&d, ReduceKind::Norm2).unwrap();
            assert!((n - a.norm2()).abs() < 1e-9);
        }
    }

    #[test]
    fn failed_worker_blocks_operations() {
        let mut cl = cluster(2);
        let a = sample(4, 4, 2);
        let da = cl.load(&a, PartitionScheme::Row);
        cl.fail_worker(1);
        assert!(matches!(
            cl.repartition(da.clone(), PartitionScheme::Col, "a"),
            Err(ClusterError::WorkerLost(1))
        ));
        cl.heal_worker(1);
        assert!(cl
            .repartition(da.clone(), PartitionScheme::Col, "a")
            .is_ok());
    }

    #[test]
    fn liveness_is_checked_before_scheme_validation() {
        // The uniform op_entry guard: even when the arguments are invalid
        // for the primitive, a dead worker must win and surface WorkerLost.
        let mut cl = cluster(3);
        let a = sample(6, 6, 3);
        let da = cl.load(&a, PartitionScheme::Row); // wrong scheme for cpmm
        let db = cl.load(&a, PartitionScheme::Row);
        cl.fail_worker(2);
        assert!(matches!(
            cl.cpmm(&da, &db, PartitionScheme::Row),
            Err(ClusterError::WorkerLost(2))
        ));
        assert!(matches!(
            cl.rmm1(&da, &db),
            Err(ClusterError::WorkerLost(2))
        ));
        assert!(matches!(
            cl.cells(
                "add",
                "",
                vec![da.clone().into(), db.clone().into()],
                &[],
                &binary(FusedOp::Add)
            ),
            Err(ClusterError::WorkerLost(2))
        ));
        assert!(matches!(
            cl.reduce(&da, ReduceKind::Sum),
            Err(ClusterError::WorkerLost(2))
        ));
    }

    #[test]
    fn decommission_remaps_logical_workers_round_robin() {
        let mut cl = cluster(4);
        cl.fail_worker(1);
        let remapped = cl.decommission(1).unwrap();
        assert_eq!(remapped, vec![1]);
        // survivors are [0, 2, 3]; logical worker 1 -> survivors[1 % 3] = 2
        assert_eq!(cl.assignment(), &[0, 2, 2, 3]);
        assert_eq!(cl.alive_hosts(), vec![0, 2, 3]);
        assert_eq!(cl.decommissioned_hosts(), vec![1]);
        // decommissioned hosts cannot heal
        cl.heal_worker(1);
        assert!(matches!(cl.check_worker(1), Ok(())), "remapped to host 2");
        assert!(!cl.alive_hosts().contains(&1));
        // a second failure remaps onto the remaining two hosts
        cl.fail_worker(2);
        let remapped = cl.decommission(2).unwrap();
        assert_eq!(remapped, vec![1, 2]);
        assert_eq!(cl.assignment(), &[0, 3, 0, 3]);
        // workloads still run, keyed on 4 logical workers
        let m = sample(8, 8, 2);
        let r = cl.load(&m, PartitionScheme::Row);
        let c = cl
            .repartition(r.clone(), PartitionScheme::Col, "m")
            .unwrap();
        assert_eq!(c.to_blocked().unwrap().to_dense(), m.to_dense());
    }

    #[test]
    fn decommission_of_last_host_is_no_survivors() {
        let mut cl = cluster(2);
        cl.decommission(0).unwrap();
        assert!(matches!(cl.decommission(1), Err(ClusterError::NoSurvivors)));
    }

    #[test]
    fn stage_kill_fires_through_begin_stage() {
        let mut cl = Cluster::with_faults(
            ClusterConfig {
                workers: 3,
                local_threads: 1,
                network: NetworkModel::default(),
            },
            FaultPlan::kill_stage(1, 42).with_victim(2),
        );
        let m = sample(6, 6, 2);
        let r = cl.load(&m, PartitionScheme::Row);
        cl.begin_stage(0);
        assert!(cl.repartition(r.clone(), PartitionScheme::Col, "m").is_ok());
        cl.begin_stage(1);
        assert!(matches!(
            cl.broadcast(r.clone(), "m"),
            Err(ClusterError::WorkerLost(2))
        ));
        assert_eq!(
            cl.fault_log(),
            &[FaultEvent::StageKill { stage: 1, host: 2 }]
        );
        // one-shot: after decommission the replayed stage does not re-kill
        cl.decommission(2).unwrap();
        cl.begin_stage(1);
        assert!(cl.broadcast(r.clone(), "m").is_ok());
    }

    #[test]
    fn transient_send_failures_retry_and_meter_wasted_bytes() {
        let flaky = |prob: f64, attempts: usize| {
            Cluster::with_faults(
                ClusterConfig {
                    workers: 2,
                    local_threads: 1,
                    network: NetworkModel::default(),
                },
                FaultPlan {
                    seed: 5,
                    transient_send_prob: prob,
                    max_send_attempts: attempts,
                    ..FaultPlan::default()
                },
            )
        };
        // always-failing network exhausts the budget
        let mut cl = flaky(1.0, 3);
        let m = sample(8, 8, 4);
        let r = cl.load(&m, PartitionScheme::Row);
        match cl.repartition(r.clone(), PartitionScheme::Col, "m") {
            Err(ClusterError::SendFailed { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected SendFailed, got {other:?}"),
        }
        assert_eq!(cl.comm().retry_events(), 3);
        assert!(cl.comm().retry_bytes() > 0);
        assert_eq!(cl.comm().shuffle_bytes(), 0, "no goodput recorded");
        // a merely flaky network eventually succeeds, with retries metered
        let mut cl = flaky(0.5, 16);
        let r = cl.load(&m, PartitionScheme::Row);
        let moved_clean = {
            let mut clean = flaky(0.0, 1);
            let rc = clean.load(&m, PartitionScheme::Row);
            clean
                .repartition(rc.clone(), PartitionScheme::Col, "m")
                .unwrap();
            clean.comm().shuffle_bytes()
        };
        cl.repartition(r.clone(), PartitionScheme::Col, "m")
            .unwrap();
        assert_eq!(cl.comm().shuffle_bytes(), moved_clean);
        assert_eq!(
            cl.comm().retry_events(),
            cl.fault_log().len(),
            "every transient failure is logged"
        );
    }

    #[test]
    fn results_are_bitwise_identical_after_decommission() {
        // The core recovery invariant: remapping logical workers onto
        // fewer hosts must not change a single result bit, because every
        // numeric loop is keyed on logical workers.
        let run = |decommission: bool| {
            let mut cl = cluster(4);
            if decommission {
                cl.fail_worker(1);
                cl.decommission(1).unwrap();
            }
            let a = sample(12, 9, 3);
            let b = sample(9, 12, 3);
            let da = cl.load(&a, PartitionScheme::Col);
            let db = cl.load(&b, PartitionScheme::Row);
            let c = cl.cpmm(&da, &db, PartitionScheme::Row).unwrap();
            c.to_blocked().unwrap().to_dense()
        };
        assert_eq!(run(false).data(), run(true).data());
    }

    #[test]
    fn clock_accumulates_comm_time() {
        let mut cl = Cluster::new(ClusterConfig {
            workers: 2,
            local_threads: 1,
            network: NetworkModel {
                bandwidth_bytes_per_sec: 1e6,
                latency_sec: 0.01,
            },
        });
        let a = sample(16, 16, 4);
        let da = cl.load(&a, PartitionScheme::Row);
        let _ = cl.broadcast(da.clone(), "a").unwrap();
        assert!(cl.clock().comm_sec() > 0.0);
        assert!(cl.clock().comm_fraction() > 0.0);
        // The span that moved the bytes carries the seconds they cost.
        assert_eq!(cl.comm().comm_sec(), cl.clock().comm_sec());
    }
}
