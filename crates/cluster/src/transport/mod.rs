//! Physical transport backends behind the simulated cluster.
//!
//! The cluster's numeric semantics are defined by its in-process
//! executor — the *oracle*: every primitive runs there first, producing
//! the result tiles and the metered `wire_bytes` that the planner's
//! Table-2 cost model predicts. A [`Transport`] is an optional *physical
//! mirror* of that execution: a cluster built without one captures
//! nothing, and a cluster built over one mirrors each primitive onto it
//! as an explicit move list or task list. A compute stage's commands need
//! only its output's rid and each worker's output keys, so it is posted
//! before the oracle computes a tile and settled after
//! ([`Transport::post_stage`], [`Transport::settle_stage`]); every other
//! primitive is replayed once the oracle has completed it. The transport
//! must
//!
//! 1. perform the equivalent physical work (ship tiles, run kernels),
//! 2. report the payload bytes it metered, which the cluster asserts
//!    equal the oracle's `wire_bytes` **exactly**, and
//! 3. prove its resulting state matches the oracle's, tile for tile and
//!    bit for bit (canonical shard checksums, partial-descriptor set
//!    equality for CPMM, bit-equal reduction partials).
//!
//! Any divergence surfaces as [`ClusterError::TransportConformance`] at
//! the primitive that drifted — not as a wrong number thirty operators
//! later.
//!
//! The one implementation is [`socket::SocketTransport`] — a real
//! multi-process cluster: `dmac-workerd` children speaking
//! length-prefixed frames over TCP ([`frame`]; JSON control messages
//! [`wire`], binary tile payload [`binfmt`]), with membership,
//! heartbeats, and a liveness timeout. Worker loss is detected here and
//! fed back into the cluster's existing lineage-recovery path.
//!
//! Values are identified across the boundary by the [`DistMatrix`]
//! *resident id* (rid): fresh at every construction, shared by clones.
//! Lineage replay after a failure builds new values with new rids, so a
//! stale shard on a surviving worker can never be confused for the
//! replayed one.
//!
//! [`ClusterError::TransportConformance`]: crate::error::ClusterError::TransportConformance

pub mod binfmt;
pub mod frame;
pub mod proto;
pub mod socket;
pub mod wire;
pub mod workerd;

use dmac_matrix::FusedOp;

use crate::cluster::{ReduceKind, Rmm};
use crate::dist::{DistMatrix, GridMeta, View};
use crate::error::Result;

/// One tile movement in a mirrored communication primitive: the tile
/// keeps its coordinates and may change worker. `metered` tiles count
/// toward the payload receipt (the bytes the oracle charged as
/// `wire_bytes`); unmetered tiles are
/// same-host or already-resident copies the oracle ships for free. Within
/// one move list `metered` is a function of `(src_w, dest_w)`, so a
/// backend may receipt a worker pair's tiles as one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveItem {
    /// Logical worker currently holding the tile (in the source value).
    pub src_w: usize,
    /// Logical worker receiving the tile (in the destination value).
    pub dest_w: usize,
    /// Block row.
    pub bi: usize,
    /// Block column.
    pub bj: usize,
    /// Whether the oracle metered this tile as wire traffic.
    pub metered: bool,
}

/// One CPMM phase-1 partial product: produced on `src_w` (the worker
/// owning the k-slice), destined for `dest_w` (the owner of the output
/// tile), `bytes` is the dense partial's `actual_bytes()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PartialDesc {
    /// Output block row.
    pub bi: usize,
    /// Output block column.
    pub bj: usize,
    /// Worker that computed the partial.
    pub src_w: usize,
    /// Worker owning the output tile.
    pub dest_w: usize,
    /// Size of the partial in bytes.
    pub bytes: u64,
}

/// When [`Transport::retain_values`] sends the `free`s of what it
/// releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Release {
    /// At the head of the next exchange, at no round of their own: a
    /// plan's `free` step or a consuming step, which the next primitive
    /// follows at once, or a remap, which lineage replay follows.
    Queued,
    /// In an exchange now, with whatever is queued: a session's sweep,
    /// which nothing may follow for a while — the workers do not hold
    /// what no handle names while the session is idle.
    Now,
}

/// A compute stage as its commands need it: everything here is known
/// before the oracle computes any of its tiles. Every output tile runs
/// `prog` at its owner over its tiles of `leaves`, then of the `rmms`'
/// products ([`crate::Cluster::cells`]).
#[derive(Debug, Clone, Copy)]
pub struct Stage<'a> {
    /// The primitive, naming the stage in seal diagnostics.
    pub op: &'static str,
    /// The cell-wise program over the leaves, then the products.
    pub prog: &'a [FusedOp],
    /// The plain leaves, read tile by tile, each as its view reads it.
    pub leaves: &'a [View<&'a DistMatrix>],
    /// The local products, folded per output tile.
    pub rmms: &'a [Rmm<'a>],
    /// The output value's rid, minted before its tiles exist.
    pub rid: u64,
    /// The output grid.
    pub meta: GridMeta,
    /// Per logical worker, the output tiles it computes.
    pub keys: &'a [Vec<(usize, usize)>],
}

/// Cumulative byte/frame counters for a transport backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Metered payload bytes (the channel conformance checks against
    /// the oracle's `wire_bytes`).
    pub payload_bytes: u64,
    /// Bytes installed to seed bound inputs (`load` sources, outside the
    /// paper's ledger, which starts after load). A `random` source is
    /// generated by its workers and adds nothing here.
    pub install_bytes: u64,
    /// Unmetered copy bytes (rehash claims, extracts, same-host shuffle
    /// legs).
    pub free_bytes: u64,
    /// Protocol frames exchanged (socket backend; 0 in-process).
    pub frames: u64,
    /// Total framed bytes on the wire, envelope included.
    pub frame_bytes: u64,
    /// Heartbeat frames received from workers.
    pub heartbeats: u64,
    /// Primitives mirrored.
    pub ops: u64,
    /// Tile payload bytes that transited the coordinator on their way
    /// between hosts. Structurally 0: cross-host tiles only ever move
    /// worker-to-worker (`peer_bytes`) and nothing increments this. The
    /// field stays because the repo benchmark (`perf/`) and
    /// `transport_conformance` read it and gate it at 0.
    pub relay_bytes: u64,
    /// Framed bytes pushed over direct worker-to-worker links, as
    /// rolled up from per-edge receipts in `xferred` replies.
    pub peer_bytes: u64,
    /// Coordinator dispatch round-trips: one per write-all-then-read
    /// exchange, i.e. one per stage however many hosts and chained
    /// commands it has (plus one per membership / shutdown request).
    pub rounds: u64,
    /// Gauge, not a counter: values (rids) the coordinator currently
    /// tracks as resident on the workers. A session that keeps running
    /// programs must see this level off, not grow.
    pub resident_values: u64,
}

/// A physical execution backend mirroring the in-process oracle.
///
/// Every mirror method receives the oracle's inputs and outputs as
/// [`DistMatrix`] references — the transport reads tiles from them to
/// seed workers with bound inputs and to verify results,
/// but the engine always consumes the oracle values; the transport's
/// stores are shadow state proven equal, never a second source of truth.
pub trait Transport: std::fmt::Debug + Send + Sync {
    /// The cluster's current logical-worker → physical-host mapping.
    /// Called once at construction and again whenever decommissioning
    /// remaps survivors — which makes every installed placement stale, so
    /// a backend answers a remap with [`Transport::retain_values`] keeping
    /// nothing.
    fn set_assignment(&mut self, assignment: &[usize]);

    /// Declare `m` a `random` source: cell `(i, j)` is
    /// [`dmac_matrix::random_cell`]`(seed, matrix, i, j)`. Nothing of it is
    /// installed. Wherever it is first needed, and again after a remap,
    /// each host generates the tiles its workers own, chained with the
    /// seal that proves them against `m` in the same exchange.
    fn generate(&mut self, m: &DistMatrix, seed: u64, matrix: u32);

    /// Mirror a communication primitive as an explicit tile move list.
    /// Returns the metered payload bytes the backend shipped, which the
    /// cluster asserts equal the oracle's `wire_bytes`.
    fn move_tiles(
        &mut self,
        op: &'static str,
        src: &DistMatrix,
        dest: &DistMatrix,
        moves: &[MoveItem],
    ) -> Result<u64>;

    /// Post a compute stage — RMM1/RMM2, a scheme-aligned cell-wise
    /// stage, or a fused one of both: every output tile computed at its
    /// owner, each host's command chained with the seal that will prove
    /// it. Called before
    /// the oracle computes the stage, so the workers compute while it
    /// does. The output is recorded resident on the hosts it was posted
    /// to at once: a stage never settled strands nothing the next
    /// [`Transport::retain_values`] does not free.
    fn post_stage(&mut self, stage: &Stage) -> Result<()>;

    /// Settle the stage [`Transport::post_stage`] posted last: read its
    /// replies and prove the workers' shards equal `out`, the oracle's
    /// output under the posted rid.
    fn settle_stage(&mut self, out: &DistMatrix) -> Result<()>;

    /// Mirror a cross-product multiply: phase 1 computes the oracle's
    /// partial set (verified by descriptor-set equality) over the operands
    /// as their views read them, partials are shipped to output owners,
    /// phase 2 combines in ascending source order. Returns the metered
    /// payload bytes (cross-worker partials).
    fn run_cpmm(
        &mut self,
        a: View<&DistMatrix>,
        b: View<&DistMatrix>,
        out: &DistMatrix,
        partials: &[PartialDesc],
    ) -> Result<u64>;

    /// Mirror a distributed reduction. `partials` are the oracle's raw
    /// per-logical-worker fold results (ascending worker order, tiles
    /// folded in sorted key order); physical backends must reproduce
    /// them bit for bit. Returns the wire bytes metered (`8·N`).
    fn run_reduce(&mut self, kind: ReduceKind, m: &DistMatrix, partials: &[f64]) -> Result<u64>;

    /// The one by-rid release: forget every value the backend knows whose
    /// rid `live` does not name, and queue the `free` of its shards on the
    /// physical workers — written at the head of the next exchange, or
    /// at once under [`Release::Now`]. Returns how many values went. A
    /// plan `free` step, or a step that consumed its input, keeps all but
    /// one ([`crate::Cluster::free`]) and costs no round; a
    /// session between runs keeps what its live handles name
    /// ([`crate::Cluster::retain`]); a remap keeps nothing. Idempotent: a
    /// rid never installed, or already released, is not known and costs
    /// nothing.
    fn retain_values(&mut self, live: &dyn Fn(u64) -> bool, release: Release) -> Result<usize>;

    /// Gather `m`'s tiles from the *physical* stores into a fresh value,
    /// bypassing the oracle — the end-to-end proof that worker state
    /// matches.
    fn gather(&mut self, m: &DistMatrix) -> Result<DistMatrix>;

    /// Hosts newly detected dead (closed connection, stale heartbeat)
    /// since the last poll. The cluster feeds these into its failure
    /// path exactly like an injected fault.
    fn poll_liveness(&mut self) -> Vec<usize>;

    /// The cluster decommissioned a host: stop talking to it and reap
    /// its process if any.
    fn host_down(&mut self, host: usize);

    /// Cumulative counters.
    fn stats(&self) -> TransportStats;

    /// Test hook: hard-kill a host's worker process (SIGKILL), *without*
    /// marking it dead — detection must happen organically through the
    /// liveness machinery. Returns false if there is no such host.
    fn debug_kill_host(&mut self, host: usize) -> bool;

    /// Graceful shutdown: stop workers, reap children. Errors if a child
    /// had to be killed (leak detection for the smoke gate).
    fn shutdown(&mut self) -> Result<()>;
}
