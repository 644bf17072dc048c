//! The real multi-process backend: a coordinator embedded in the session
//! process driving `dmac-workerd` children over TCP.
//!
//! ## Topology and membership
//!
//! The coordinator binds `127.0.0.1:0` (the OS assigns the port), spawns
//! one worker process per physical host, and each worker connects back
//! and introduces itself with a `hello` frame advertising its peer
//! listen address and `"bin":1` — its promise to speak the binary `DMB1`
//! tile codec ([`super::binfmt`]). A hello without it (a stale
//! `dmac-workerd` picked up by [`locate_workerd`]) fails the launch with
//! [`ClusterError::Protocol`]. After membership the coordinator sends
//! every worker the peer address table (`peers`).
//!
//! There is one data plane. Control traffic is a star — every command
//! and reply crosses the coordinator as a JSON frame — but *tile
//! payload* never does, except to seed a bound input (`install`) or read
//! a value back (`collect`), both as `DMB1` bodies. A `random` source is
//! not seeded: its `install` has no body and names the generator, and each
//! worker makes the tiles it owns. Every tile move — a shuffle,
//! a local transpose, CPMM's partial shuffle — is built in one place
//! (`SocketTransport::route`): one `xfer` routing plan per source host,
//! its tiles named once per group of one source worker, destination
//! worker and destination host. The worker installs the groups bound for
//! its own host and pushes the rest straight to the destination's peer
//! listener, rolling one byte receipt per group and per-edge frame stats
//! up in its `xferred` reply ([`TransportStats::peer_bytes`]).
//!
//! ## Pipelined dispatch
//!
//! An exchange is posted, then collected. `post` writes all its commands
//! to all hosts before any reply is read, each beside the check its reply
//! must pass (an `ok`, the seal of a given value); `collect` reads the
//! replies in order and applies those checks — a stage costs one
//! round-trip ([`TransportStats::rounds`]), not `hosts × primitives`. A
//! compute stage is posted before the oracle computes it and collected
//! after, so the workers and the oracle compute at once; every seal
//! computes the oracle's checksums between the two halves. A plan's
//! `free` step costs no round of its own: its `free`s are queued and
//! written at the head of the next exchange, whose collect checks their
//! `ok`s with the rest (a session's sweep writes the queue at once, as an
//! exchange of its own). Every command carries a per-connection sequence
//! number `"q"` which the worker echoes in its reply; after an aborted
//! stage (worker loss mid-exchange) the coordinator discards stale-`q`
//! replies, so the connection re-synchronises without draining logic.
//!
//! ## Liveness
//!
//! Each worker heartbeats every `heartbeat_ms` from a dedicated thread,
//! so beats keep arriving while the worker is busy computing. The
//! coordinator marks a host dead when its connection closes or errors,
//! its process is reaped, or no heartbeat has been seen for
//! `liveness_timeout_ms` — and surfaces it as
//! [`ClusterError::WorkerLost`], the same error injected faults produce,
//! so the engine's lineage-recovery path handles real process death
//! with no new code. A worker whose peer push fails reports `peerfail`
//! naming the dead destination, which the coordinator folds into the
//! same path.
//!
//! ## Metering and conformance
//!
//! Payload is metered per *logical* move (a tile whose logical owner
//! changes is charged even when both workers share a host — matching the
//! simulator's logical ledger), from the byte sizes workers report —
//! identically for pushed and locally installed tiles, so
//! `transport_bytes == wire_bytes` conformance is invariant under the
//! worker → host assignment. After every mirrored primitive the
//! destination value is *sealed*: each host reports canonical per-shard
//! checksums ([`wire::shard_checksum`]) that must equal the oracle's, so
//! state divergence is caught at the primitive that caused it — and a
//! reply must answer for exactly the workers it was asked about. Seals
//! are only issued after every `xferred` receipt of the move is in hand,
//! so all peer installs happen-before the seal.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmac_matrix::Block;

use crate::cluster::ReduceKind;
use crate::dist::{fresh_rid, DistMatrix, GridMeta};
use crate::error::{ClusterError, Result};
use crate::json::{arr_of, JsonArr, JsonObj};
use crate::jsonin::Json;
use crate::partition::PartitionScheme;
use crate::transport::binfmt;
use crate::transport::frame::{framed_len, write_frame_bytes, FrameReader, MAX_FRAME};
use crate::transport::wire;
use crate::transport::{
    MoveItem, PartialDesc, Release, Stage, StageKernel, TileTransform, Transport, TransportStats,
};

/// When the SIGKILL test hook ([`SocketOptions::kill`]) fires. Counts
/// are 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillAt {
    /// As the n-th mirrored primitive begins.
    AfterOps(u64),
    /// Right after the write phase of the n-th exchange — mid-stage,
    /// commands written, no reply read.
    MidStage(u64),
    /// Right after the write phase of the n-th exchange with a cross-host
    /// item — while peer pushes toward (or from) the host are in flight.
    MidXfer(u64),
}

/// Tuning knobs for the socket backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketOptions {
    /// Worker heartbeat period (milliseconds).
    pub heartbeat_ms: u64,
    /// A host with no heartbeat for this long is declared dead.
    pub liveness_timeout_ms: u64,
    /// Test hook: SIGKILL host `.0`'s process at moment `.1`, *without*
    /// marking it dead — detection must flow through the organic
    /// liveness machinery.
    pub kill: Option<(usize, KillAt)>,
}

impl Default for SocketOptions {
    fn default() -> Self {
        SocketOptions {
            heartbeat_ms: 100,
            liveness_timeout_ms: 2000,
            kill: None,
        }
    }
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    child: Child,
    last_hb: Instant,
    alive: bool,
    /// Next sequence number to stamp on an outgoing command.
    seq: u64,
    /// Peer listener address advertised in the hello.
    peer: String,
}

/// One outgoing command, sequence number still to be stamped.
enum Outgoing {
    /// A JSON control command.
    Json(JsonObj),
    /// A binary message: JSON header + bulk body.
    Bin(JsonObj, Vec<u8>),
}

/// One worker reply: parsed header, plus the raw body for binary
/// messages (the tile section of a `collect` reply).
struct Reply {
    head: Json,
    body: Option<Vec<u8>>,
}

impl Reply {
    /// Decode one frame from a worker: a `DMB1` message (JSON header +
    /// body) or a JSON text; `None` when it is neither.
    fn decode(raw: &[u8]) -> Option<Reply> {
        if binfmt::is_binary(raw) {
            let (head, body) = binfmt::decode(raw).ok()?;
            let head = Json::parse(head).ok()?;
            Some(Reply {
                head,
                body: Some(body.to_vec()),
            })
        } else {
            let head = Json::parse(std::str::from_utf8(raw).ok()?).ok()?;
            Some(Reply { head, body: None })
        }
    }

    fn kind(&self) -> Option<&str> {
        self.head.get("t").and_then(Json::as_str)
    }
}

/// What a posted command's reply must be. It travels beside its command
/// in the posted list, so an exchange aborted by a worker's death takes
/// its checks with it.
#[derive(Debug)]
enum Check {
    /// `ok`: an install, an op that stores its results, a `free`.
    Ok,
    /// `sealed`, answering for exactly these logical workers, each shard
    /// equal to the oracle's.
    Seal(Vec<usize>),
    /// Handed back to the caller, which reads it.
    Read,
}

/// An exchange written and not yet read: the primitive it serves, and per
/// command its host, sequence number and check.
#[derive(Debug)]
struct Posted {
    op: &'static str,
    pending: Vec<(usize, u64, Check)>,
}

/// One group of a move exchange (`SocketTransport::route`): tiles `keys`
/// of worker `wi`'s shard of the source value become worker `wo`'s in the
/// destination value, on host `dh`.
struct Group {
    wi: usize,
    wo: usize,
    dh: usize,
    keys: Vec<(usize, usize)>,
}

/// Tile keys as a group names them: `[bi,bj,bi,bj,…]`.
fn keys_json(keys: &[(usize, usize)]) -> String {
    let flat = keys.iter().flat_map(|&(bi, bj)| [bi, bj]);
    flat.fold(JsonArr::new(), |k, x| k.u64(x as u64)).build()
}

/// Worker `w`'s tiles as a command's `tasks` name them: one group,
/// `{"w","k":[bi,bj,…]}`, or none when it has no tile.
fn worker_group(w: usize, keys: &[(usize, usize)]) -> Vec<String> {
    let group = JsonObj::new().u64("w", w as u64);
    let group = group.raw("k", &keys_json(keys)).build();
    (!keys.is_empty()).then_some(group).into_iter().collect()
}

/// The oracle's side of a seal: per logical worker, its shard of `value`
/// as a tile count and canonical checksum.
fn oracle_shards(value: &DistMatrix) -> Vec<(usize, u64)> {
    let shard = |w| {
        let tiles = value.worker_blocks(w);
        let sum = wire::shard_checksum(tiles.iter().map(|(&k, t)| (k, &**t)));
        (tiles.len(), sum)
    };
    (0..value.workers()).map(shard).collect()
}

/// A reply about logical workers `asked` answers for each exactly once.
fn answers_each_once(host: usize, what: &str, asked: &[usize], answered: &[usize]) -> Result<()> {
    let (mut asked, mut answered) = (asked.to_vec(), answered.to_vec());
    asked.sort_unstable();
    answered.sort_unstable();
    if asked == answered {
        return Ok(());
    }
    Err(ClusterError::Protocol(format!(
        "host {host}: {what} reply answers for workers {answered:?}, was asked about {asked:?}"
    )))
}

/// Validate one host's `sealed` reply: it answers for exactly the logical
/// workers `ws`, each once, and every shard equals the oracle's
/// ([`oracle_shards`]) — a divergence blamed on `op`.
fn check_seal(
    op: &'static str,
    host: usize,
    reply: &Json,
    ws: &[usize],
    oracle: &[(usize, u64)],
) -> Result<()> {
    let mut shards = Vec::new();
    for shard in wire::field_arr(reply, "shards").map_err(ClusterError::Protocol)? {
        let w = wire::field_usize(shard, "w").map_err(ClusterError::Protocol)?;
        let n = wire::field_usize(shard, "n").map_err(ClusterError::Protocol)?;
        let x = wire::field_str(shard, "x")
            .ok()
            .and_then(wire::parse_hex_u64)
            .ok_or_else(|| ClusterError::Protocol("bad seal checksum".into()))?;
        shards.push((w, n, x));
    }
    let answered: Vec<usize> = shards.iter().map(|s| s.0).collect();
    answers_each_once(host, "seal", ws, &answered)?;
    for (w, n, x) in shards {
        let &(want_n, want_x) = oracle
            .get(w)
            .ok_or_else(|| ClusterError::Protocol(format!("seal for unknown worker {w}")))?;
        if (n, x) != (want_n, want_x) {
            return Err(ClusterError::TransportConformance {
                op,
                detail: format!(
                    "shard of worker {w} on host {host} diverged \
                     ({n} tiles, checksum {x:016x}; oracle {want_n} tiles, {want_x:016x})"
                ),
            });
        }
    }
    Ok(())
}

/// Validate one host's `reduced` reply: it answers for exactly the
/// logical workers `ws`, each once, and every partial equals the oracle's
/// bit for bit.
fn check_reduce(host: usize, reply: &Json, ws: &[usize], partials: &[f64]) -> Result<()> {
    let mut parts = Vec::new();
    for part in wire::field_arr(reply, "parts").map_err(ClusterError::Protocol)? {
        let w = wire::field_usize(part, "w").map_err(ClusterError::Protocol)?;
        let x = wire::field_str(part, "x")
            .ok()
            .and_then(wire::parse_hex_f64)
            .ok_or_else(|| ClusterError::Protocol("bad reduce partial".into()))?;
        parts.push((w, x));
    }
    let answered: Vec<usize> = parts.iter().map(|p| p.0).collect();
    answers_each_once(host, "reduce", ws, &answered)?;
    for (w, x) in parts {
        let want = partials.get(w).copied().ok_or_else(|| {
            ClusterError::Protocol(format!("reduce partial for unknown worker {w}"))
        })?;
        if x.to_bits() != want.to_bits() {
            return Err(ClusterError::TransportConformance {
                op: "reduce",
                detail: format!("worker {w} partial {x:e} != oracle {want:e} (bitwise)"),
            });
        }
    }
    Ok(())
}

fn check_ok(host: usize, reply: &Reply) -> Result<()> {
    match reply.kind() {
        Some("ok") => Ok(()),
        other => Err(ClusterError::Protocol(format!(
            "host {host}: expected ok, got {other:?}"
        ))),
    }
}

/// Decode the tile section of a `collect` reply.
fn reply_tiles(reply: &Reply) -> std::result::Result<Vec<(usize, usize, usize, Block)>, String> {
    match &reply.body {
        Some(body) => binfmt::decode_tiles(body),
        None => Err("collect reply is not a DMB1 message".into()),
    }
}

/// Locate the `dmac-workerd` binary: `DMAC_WORKERD` env override, then
/// next to the current executable, then its parent directory (test
/// executables live in `target/debug/deps/`, the bin one level up).
pub fn locate_workerd() -> Result<PathBuf> {
    if let Ok(p) = std::env::var("DMAC_WORKERD") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(ClusterError::Protocol(format!(
            "DMAC_WORKERD points at {}, which does not exist",
            p.display()
        )));
    }
    let exe =
        std::env::current_exe().map_err(|e| ClusterError::Protocol(format!("current_exe: {e}")))?;
    let mut dirs: Vec<PathBuf> = Vec::new();
    if let Some(d) = exe.parent() {
        dirs.push(d.to_path_buf());
        if let Some(p) = d.parent() {
            dirs.push(p.to_path_buf());
        }
    }
    let name = format!("dmac-workerd{}", std::env::consts::EXE_SUFFIX);
    for d in &dirs {
        let cand = d.join(&name);
        if cand.is_file() {
            return Ok(cand);
        }
    }
    // Last resort: cargo places hashed copies (`dmac_workerd-<hash>`) in
    // the `deps/` dir next to test executables even when the unhashed
    // uplift copy is absent. The same name can also be a libtest-harness
    // build of the bin target, so probe each candidate (newest first) and
    // accept only one that identifies itself as the daemon.
    let mut candidates: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
    for d in &dirs {
        let Ok(entries) = std::fs::read_dir(d.join("deps")) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            let Some(stem) = p.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !stem.starts_with("dmac_workerd-") || stem.contains('.') {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let t = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            candidates.push((t, p));
        }
    }
    candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
    for (_, p) in candidates {
        let probe = std::process::Command::new(&p)
            .arg("--probe")
            .stdin(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(out) = probe {
            if out.status.success() && out.stdout.starts_with(b"dmac-workerd") {
                return Ok(p);
            }
        }
    }
    Err(ClusterError::Protocol(
        "dmac-workerd binary not found (build it, or set DMAC_WORKERD)".into(),
    ))
}

/// The coordinator side of the real cluster backend.
#[derive(Debug)]
pub struct SocketTransport {
    conns: Vec<Conn>,
    assignment: Vec<usize>,
    /// Every value resident on the workers, by rid, with the hosts that
    /// hold a shard of it.
    known: HashMap<u64, BTreeSet<usize>>,
    /// Every live `random` source, by rid: its seed and matrix id. Such a
    /// value is generated by its workers, never installed — at its first
    /// use, and again at its first use after a remap.
    recipes: HashMap<u64, (u64, u32)>,
    /// `free`s of released values, by host and rid, still to be written
    /// at the head of the next exchange.
    frees: Vec<(usize, u64)>,
    /// The compute stage posted and not yet settled, by its output's rid.
    staged: Option<(u64, Posted)>,
    stats: TransportStats,
    opts: SocketOptions,
    /// Mirrored primitives begun ([`KillAt::AfterOps`]).
    ops_done: u64,
    /// Exchanges written ([`KillAt::MidStage`]).
    stages_done: u64,
    /// Exchanges with a cross-host item written ([`KillAt::MidXfer`]).
    xfers_done: u64,
    /// Hosts whose death has already been surfaced (via poll or
    /// [`Transport::host_down`]); never reported again.
    reported: HashSet<usize>,
    shut: bool,
}

impl SocketTransport {
    /// Spawn `workers` worker processes and complete membership: bind
    /// port 0, launch children pointed back at the assigned port, wait
    /// for every `hello`, then distribute the peer address table.
    pub fn launch(workers: usize, opts: SocketOptions) -> Result<SocketTransport> {
        let bin = locate_workerd()?;
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| ClusterError::Protocol(format!("bind: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ClusterError::Protocol(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ClusterError::Protocol(format!("nonblocking: {e}")))?;

        let mut children: Vec<Option<Child>> = Vec::with_capacity(workers);
        for h in 0..workers {
            let child = Command::new(&bin)
                .arg("--connect")
                .arg(addr.to_string())
                .arg("--host-id")
                .arg(h.to_string())
                .arg("--heartbeat-ms")
                .arg(opts.heartbeat_ms.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| {
                    // Don't leak already-spawned siblings on a failed launch.
                    for c in children.iter_mut().flatten() {
                        c.kill().ok();
                        c.wait().ok();
                    }
                    ClusterError::Protocol(format!("spawn {}: {e}", bin.display()))
                })?;
            children.push(Some(child));
        }

        let kill_all = |children: &mut Vec<Option<Child>>| {
            for c in children.iter_mut().flatten() {
                c.kill().ok();
                c.wait().ok();
            }
        };

        type Slot = (TcpStream, FrameReader, String);
        let deadline = Instant::now() + Duration::from_secs(15);
        let mut slots: Vec<Option<Slot>> = (0..workers).map(|_| None).collect();
        let mut accepted = 0usize;
        while accepted < workers {
            if Instant::now() > deadline {
                kill_all(&mut children);
                return Err(ClusterError::Protocol(format!(
                    "membership timed out: {accepted}/{workers} workers registered"
                )));
            }
            for c in children.iter_mut().flatten() {
                if let Ok(Some(status)) = c.try_wait() {
                    kill_all(&mut children);
                    return Err(ClusterError::Protocol(format!(
                        "worker exited during startup ({status})"
                    )));
                }
            }
            let (stream, _) = match listener.accept() {
                Ok(s) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
                Err(e) => {
                    kill_all(&mut children);
                    return Err(ClusterError::Protocol(format!("accept: {e}")));
                }
            };
            stream.set_nodelay(true).ok();
            stream
                .set_read_timeout(Some(Duration::from_millis(250)))
                .ok();
            let mut stream = stream;
            let mut reader = FrameReader::default();
            let hello = loop {
                if Instant::now() > deadline {
                    kill_all(&mut children);
                    return Err(ClusterError::Protocol("hello timed out".into()));
                }
                match reader.next(&mut stream) {
                    Ok(Some(t)) => break t,
                    Ok(None) => continue,
                    Err(e) => {
                        kill_all(&mut children);
                        return Err(ClusterError::Protocol(format!("hello read: {e}")));
                    }
                }
            };
            let parsed = std::str::from_utf8(&hello)
                .ok()
                .and_then(|t| Json::parse(t).ok())
                .filter(|j| j.get("t").and_then(Json::as_str) == Some("hello"));
            let host = parsed
                .as_ref()
                .and_then(|j| j.get("host").and_then(Json::as_u64))
                .map(|h| h as usize);
            match host {
                Some(h) if h < workers && slots[h].is_none() => {
                    let j = parsed.expect("host implies parsed");
                    if j.get("bin").and_then(Json::as_u64) != Some(1) {
                        kill_all(&mut children);
                        return Err(ClusterError::Protocol(format!(
                            "worker {h} ({}) does not speak the DMB1 tile codec \
                             (stale dmac-workerd? rebuild it, or set DMAC_WORKERD)",
                            bin.display()
                        )));
                    }
                    let peer = j
                        .get("peer")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    slots[h] = Some((stream, reader, peer));
                    accepted += 1;
                }
                _ => {
                    kill_all(&mut children);
                    return Err(ClusterError::Protocol(format!(
                        "bad hello frame: {}",
                        String::from_utf8_lossy(&hello)
                    )));
                }
            }
        }

        let now = Instant::now();
        let conns: Vec<Conn> = slots
            .into_iter()
            .zip(children.iter_mut())
            .map(|(slot, child)| {
                let (stream, reader, peer) = slot.expect("all slots filled");
                Conn {
                    stream,
                    reader,
                    child: child.take().expect("child present"),
                    last_hb: now,
                    alive: true,
                    seq: 0,
                    peer,
                }
            })
            .collect();
        let mut me = SocketTransport {
            conns,
            assignment: (0..workers).collect(),
            known: HashMap::new(),
            recipes: HashMap::new(),
            frees: Vec::new(),
            staged: None,
            stats: TransportStats::default(),
            opts,
            ops_done: 0,
            stages_done: 0,
            xfers_done: 0,
            reported: HashSet::new(),
            shut: false,
        };
        let mut peers = JsonArr::new();
        for h in 0..workers {
            peers = peers.str(&me.conns[h].peer.clone());
        }
        let peers = peers.build();
        for host in 0..workers {
            let cmd = JsonObj::new()
                .str("t", "peers")
                .raw("peers", &peers)
                .u64("timeout_ms", opts.liveness_timeout_ms);
            me.expect_ok(host, Outgoing::Json(cmd))?;
        }
        Ok(me)
    }

    fn mark_dead(conn: &mut Conn) {
        conn.alive = false;
        conn.child.kill().ok();
        conn.child.wait().ok();
    }

    /// Stamp the next sequence number, frame (JSON or binary), write,
    /// and account — the send half of a round-trip.
    fn send_cmd(&mut self, host: usize, cmd: Outgoing) -> Result<u64> {
        let stats = &mut self.stats;
        let conn = &mut self.conns[host];
        if !conn.alive {
            return Err(ClusterError::WorkerLost(host));
        }
        let seq = conn.seq;
        conn.seq += 1;
        let payload: Vec<u8> = match cmd {
            Outgoing::Json(obj) => obj.u64("q", seq).build().into_bytes(),
            Outgoing::Bin(obj, body) => binfmt::encode(&obj.u64("q", seq).build(), &body),
        };
        stats.frames += 1;
        stats.frame_bytes += framed_len(payload.len());
        if write_frame_bytes(&mut conn.stream, &payload).is_err() {
            Self::mark_dead(conn);
            return Err(ClusterError::WorkerLost(host));
        }
        Ok(seq)
    }

    /// Receive the reply carrying sequence number `want` from `host`,
    /// tolerating interleaved heartbeats, discarding stale replies from
    /// aborted stages, and watching the liveness deadline.
    fn recv_reply(&mut self, host: usize, want: u64) -> Result<Reply> {
        let liveness = Duration::from_millis(self.opts.liveness_timeout_ms);
        let reply = 'outer: {
            let stats = &mut self.stats;
            let conn = &mut self.conns[host];
            if !conn.alive {
                return Err(ClusterError::WorkerLost(host));
            }
            loop {
                match conn.reader.next(&mut conn.stream) {
                    Ok(Some(raw)) => {
                        stats.frames += 1;
                        stats.frame_bytes += framed_len(raw.len());
                        let Some(reply) = Reply::decode(&raw) else {
                            Self::mark_dead(conn);
                            return Err(ClusterError::Protocol(format!(
                                "unparseable reply from host {host}"
                            )));
                        };
                        if reply.kind() == Some("hb") {
                            conn.last_hb = Instant::now();
                            stats.heartbeats += 1;
                            continue;
                        }
                        match reply.head.get("q").and_then(Json::as_u64) {
                            // A stale reply from an exchange aborted by
                            // worker loss: discard; the connection
                            // re-synchronises by sequence number.
                            Some(q) if q < want => continue,
                            Some(q) if q == want => break 'outer reply,
                            _ => {
                                Self::mark_dead(conn);
                                return Err(ClusterError::Protocol(format!(
                                    "host {host} desynchronised (bad reply sequence)"
                                )));
                            }
                        }
                    }
                    Ok(None) => {
                        if matches!(conn.child.try_wait(), Ok(Some(_)))
                            || conn.last_hb.elapsed() > liveness
                        {
                            Self::mark_dead(conn);
                            return Err(ClusterError::WorkerLost(host));
                        }
                    }
                    Err(_) => {
                        Self::mark_dead(conn);
                        return Err(ClusterError::WorkerLost(host));
                    }
                }
            }
        };
        match reply.kind() {
            Some("err") => {
                let msg = reply
                    .head
                    .get("msg")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                Err(ClusterError::Protocol(format!("host {host}: {msg}")))
            }
            // A worker's peer push failed: the *destination* host is the
            // casualty. Fold it into the normal worker-loss path.
            Some("peerfail") => {
                let h = wire::field_usize(&reply.head, "host").map_err(ClusterError::Protocol)?;
                if let Some(conn) = self.conns.get_mut(h) {
                    Self::mark_dead(conn);
                }
                Err(ClusterError::WorkerLost(h))
            }
            _ => Ok(reply),
        }
    }

    /// One blocking round-trip (membership and shutdown).
    fn request(&mut self, host: usize, cmd: Outgoing) -> Result<Reply> {
        let seq = self.send_cmd(host, cmd)?;
        self.stats.rounds += 1;
        self.recv_reply(host, seq)
    }

    /// The write half of an exchange: the queued `free`s, then every
    /// command, to every host, before any reply is read — then the kill
    /// hooks get their chance. `op` names the primitive (in seal
    /// diagnostics; `"xfer"` for a move with a cross-host group). A queued
    /// free that was not written stays queued, one for a host found dead
    /// goes; nothing to write, nothing written.
    fn post(&mut self, op: &'static str, cmds: Vec<(usize, Outgoing, Check)>) -> Result<Posted> {
        let conns = &self.conns;
        self.frees.retain(|&(host, _)| conns[host].alive);
        if cmds.is_empty() && self.frees.is_empty() {
            let pending = Vec::new();
            return Ok(Posted { op, pending });
        }
        let queued = std::mem::take(&mut self.frees);
        let frees = queued
            .iter()
            .map(|&(h, rid)| (h, Self::free_cmd(rid), Check::Ok));
        let all: Vec<_> = frees.chain(cmds).collect();
        let mut pending = Vec::with_capacity(all.len());
        for (i, (host, cmd, check)) in all.into_iter().enumerate() {
            match self.send_cmd(host, cmd) {
                Ok(seq) => pending.push((host, seq, check)),
                Err(e) => {
                    let conns = &self.conns;
                    let unwritten = queued.into_iter().skip(i + 1);
                    self.frees = unwritten.filter(|&(h, _)| conns[h].alive).collect();
                    return Err(e);
                }
            }
        }
        self.stage_hooks(op);
        Ok(Posted { op, pending })
    }

    /// The read half: every reply in command order, each held to the
    /// check posted with its command — a seal to `oracle`
    /// ([`oracle_shards`]; empty for an exchange that seals nothing).
    /// Counts the round; returns the replies posted as [`Check::Read`],
    /// each with its host.
    fn collect(&mut self, posted: Posted, oracle: &[(usize, u64)]) -> Result<Vec<(usize, Reply)>> {
        if posted.pending.is_empty() {
            return Ok(Vec::new());
        }
        let mut replies = Vec::new();
        for (host, seq, check) in posted.pending {
            let reply = self.recv_reply(host, seq)?;
            match check {
                Check::Ok => check_ok(host, &reply)?,
                Check::Seal(ws) => check_seal(posted.op, host, &reply.head, &ws, oracle)?,
                Check::Read => replies.push((host, reply)),
            }
        }
        self.stats.rounds += 1;
        Ok(replies)
    }

    /// Post and collect at once: an exchange that seals nothing.
    fn exchange(
        &mut self,
        op: &'static str,
        cmds: Vec<(usize, Outgoing, Check)>,
    ) -> Result<Vec<(usize, Reply)>> {
        let posted = self.post(op, cmds)?;
        self.collect(posted, &[])
    }

    /// SIGKILL the test hook's host if `now` is its moment — on purpose
    /// *without* marking the host dead: the liveness machinery must
    /// notice on its own.
    fn kill_hook(&mut self, now: KillAt) {
        if let Some((h, at)) = self.opts.kill {
            if at == now && h < self.conns.len() {
                self.conns[h].child.kill().ok();
            }
        }
    }

    /// Count one written exchange (frames out, no reply read yet) and
    /// give the mid-stage / mid-xfer kill hooks their chance.
    fn stage_hooks(&mut self, op: &'static str) {
        self.stages_done += 1;
        self.kill_hook(KillAt::MidStage(self.stages_done));
        if op == "xfer" {
            self.xfers_done += 1;
            self.kill_hook(KillAt::MidXfer(self.xfers_done));
        }
    }

    fn expect_ok(&mut self, host: usize, cmd: Outgoing) -> Result<()> {
        let reply = self.request(host, cmd)?;
        check_ok(host, &reply)
    }

    /// Count one mirrored primitive as it begins.
    fn op_tick(&mut self) {
        self.ops_done += 1;
        self.stats.ops += 1;
        self.kill_hook(KillAt::AfterOps(self.ops_done));
    }

    /// Distinct live hosts with their logical workers, ascending.
    fn hosts_with_ws(&self) -> Vec<(usize, Vec<usize>)> {
        let mut map: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (w, &h) in self.assignment.iter().enumerate() {
            map.entry(h).or_default().push(w);
        }
        map.into_iter().collect()
    }

    /// Record `m` as resident, on the hosts of the workers holding its
    /// shards — proven there by the install or seal the caller just read.
    fn now_resident(&mut self, m: &DistMatrix) {
        let holders = (0..m.workers()).filter(|&w| !m.worker_blocks(w).is_empty());
        let hosts = holders.map(|w| self.assignment[w]).collect();
        self.known.insert(m.rid(), hosts);
    }

    /// Chunk a batch of placed tiles into `DMB1` `install` commands
    /// respecting the frame ceiling.
    fn install_cmds(rid: u64, tiles: &[(usize, usize, usize, &Block)]) -> Vec<Outgoing> {
        let budget = (MAX_FRAME / 2) as usize;
        let install = |count: u32, mut body: Vec<u8>| {
            body[..4].copy_from_slice(&count.to_le_bytes());
            Outgoing::Bin(JsonObj::new().str("t", "install").u64("rid", rid), body)
        };
        let mut cmds = Vec::new();
        let mut body = vec![0u8; 4];
        let mut count = 0u32;
        for &(w, bi, bj, tile) in tiles {
            if count > 0 && body.len() + binfmt::tile_wire_len(tile) > budget {
                cmds.push(install(count, std::mem::replace(&mut body, vec![0u8; 4])));
                count = 0;
            }
            binfmt::push_tile(&mut body, w, bi, bj, tile);
            count += 1;
        }
        if count > 0 {
            cmds.push(install(count, body));
        }
        cmds
    }

    /// The bodiless `install` commands by which one host's workers
    /// generate their tiles `keys[w]` of random source `rid`, chunked so
    /// that no command makes more dense bytes than an install frame's
    /// budget carries.
    fn generate_cmds(
        (rid, seed, matrix): (u64, u64, u32),
        meta: &GridMeta,
        ws: &[usize],
        keys: &[Vec<(usize, usize)>],
    ) -> Vec<Outgoing> {
        let budget = u64::from(MAX_FRAME / 2);
        let generate = |batch: &BTreeMap<usize, Vec<(usize, usize)>>| {
            let tasks = batch.iter().flat_map(|(&w, k)| worker_group(w, k));
            let cmd = JsonObj::new()
                .str("t", "install")
                .u64("rid", rid)
                .str("seed", &wire::hex_u64(seed))
                .u64("m", u64::from(matrix))
                .u64("rows", meta.rows as u64)
                .u64("cols", meta.cols as u64)
                .u64("block", meta.block as u64)
                .raw("tasks", &arr_of(tasks));
            Outgoing::Json(cmd)
        };
        let (mut cmds, mut batch, mut bytes) = (Vec::new(), BTreeMap::new(), 0u64);
        for &w in ws {
            for &(bi, bj) in &keys[w] {
                let tile = 8 * (meta.block_rows_of(bi) * meta.block_cols_of(bj)) as u64;
                if !batch.is_empty() && bytes + tile > budget {
                    cmds.push(generate(&std::mem::take(&mut batch)));
                    bytes = 0;
                }
                batch.entry(w).or_default().push((bi, bj));
                bytes += tile;
            }
        }
        if !batch.is_empty() {
            cmds.push(generate(&batch));
        }
        cmds
    }

    /// Make `m`'s shards resident on the physical workers if its rid is
    /// not yet known, in one exchange: a `random` source's are generated
    /// there ([`SocketTransport::generate_resident`]); a bound input's
    /// tiles are installed, unmetered (`install_bytes`) — the paper's
    /// ledger starts after load.
    fn ensure_resident(&mut self, m: &DistMatrix) -> Result<()> {
        if self.known.contains_key(&m.rid()) {
            return Ok(());
        }
        if let Some(&(seed, matrix)) = self.recipes.get(&m.rid()) {
            return self.generate_resident(m, seed, matrix);
        }
        let mut per_host: BTreeMap<usize, Vec<(usize, usize, usize, &Block)>> = BTreeMap::new();
        let mut bytes = 0u64;
        for w in 0..m.workers() {
            let host = self.assignment[w];
            for (&(bi, bj), tile) in m.worker_blocks(w) {
                bytes += tile.actual_bytes() as u64;
                per_host.entry(host).or_default().push((w, bi, bj, tile));
            }
        }
        let mut cmds = Vec::new();
        for (host, tiles) in &per_host {
            for cmd in Self::install_cmds(m.rid(), tiles) {
                cmds.push((*host, cmd, Check::Ok));
            }
        }
        self.exchange("install", cmds)?;
        self.now_resident(m);
        self.stats.install_bytes += bytes;
        Ok(())
    }

    /// Have each host's workers generate their tiles of random source
    /// `m`, every host's commands chained with the seal that proves them
    /// against the oracle: nothing is installed, and the workers' bits
    /// are checked before their first use.
    fn generate_resident(&mut self, m: &DistMatrix, seed: u64, matrix: u32) -> Result<()> {
        let keys: Vec<Vec<(usize, usize)>> = (0..m.workers())
            .map(|w| {
                let mut keys: Vec<_> = m.worker_blocks(w).keys().copied().collect();
                keys.sort_unstable();
                keys
            })
            .collect();
        let recipe = (m.rid(), seed, matrix);
        let mut cmds = Vec::new();
        for (host, ws) in self.hosts_with_ws() {
            for cmd in Self::generate_cmds(recipe, m.meta(), &ws, &keys) {
                cmds.push((host, cmd, Check::Ok));
            }
            cmds.push((host, Self::seal_cmd(m.rid(), &ws), Check::Seal(ws)));
        }
        let posted = self.post("generate", cmds)?;
        let oracle = oracle_shards(m);
        self.collect(posted, &oracle)?;
        self.now_resident(m);
        Ok(())
    }

    /// The `seal` command proving one value's shards on a host.
    fn seal_cmd(rid: u64, ws: &[usize]) -> Outgoing {
        let mut ws_arr = JsonArr::new();
        for &w in ws {
            ws_arr = ws_arr.u64(w as u64);
        }
        Outgoing::Json(
            JsonObj::new()
                .str("t", "seal")
                .u64("rid", rid)
                .raw("ws", &ws_arr.build()),
        )
    }

    /// The `free` command releasing one value's shards on a host.
    fn free_cmd(rid: u64) -> Outgoing {
        Outgoing::Json(JsonObj::new().str("t", "free").u64("rid", rid))
    }

    /// Verify a value's physical shards against the oracle — one
    /// pipelined exchange across all hosts, the oracle's checksums
    /// computed while the workers compute theirs.
    fn seal_check(&mut self, op: &'static str, value: &DistMatrix) -> Result<()> {
        let hosts = self.hosts_with_ws().into_iter();
        let cmds = hosts
            .map(|(host, ws)| (host, Self::seal_cmd(value.rid(), &ws), Check::Seal(ws)))
            .collect();
        let posted = self.post(op, cmds)?;
        let oracle = oracle_shards(value);
        self.collect(posted, &oracle).map(drop)
    }

    /// The commands of one compute stage: every host gets the op command
    /// for the output tiles its workers own (none if they own nothing),
    /// then — CPMM phase 2's extra — the `free` of the `staging` rid, then
    /// the `seal` proving `rid`; the worker runs them in order, so op +
    /// proof cost one round-trip for the whole stage. `tasks_of(w)`
    /// renders worker `w`'s tasks, `op_cmd` a host's command from its
    /// task array.
    fn stage_cmds(
        &self,
        rid: u64,
        staging: Option<u64>,
        tasks_of: impl Fn(usize) -> Vec<String>,
        op_cmd: impl Fn(&str) -> Outgoing,
    ) -> Vec<(usize, Outgoing, Check)> {
        let mut cmds = Vec::new();
        for (host, ws) in self.hosts_with_ws() {
            let tasks: Vec<String> = ws.iter().flat_map(|&w| tasks_of(w)).collect();
            if !tasks.is_empty() {
                cmds.push((host, op_cmd(&arr_of(tasks)), Check::Ok));
            }
            if let Some(stage) = staging {
                cmds.push((host, Self::free_cmd(stage), Check::Ok));
            }
            cmds.push((host, Self::seal_cmd(rid, &ws), Check::Seal(ws)));
        }
        cmds
    }

    /// The one move exchange every tile move rides: each source host
    /// gets its groups as one `xfer` routing plan, and its worker installs
    /// the groups bound for its own host and pushes the rest to their
    /// hosts' peers. Labelled `"xfer"` exactly when some group crosses
    /// hosts; no groups, no exchange. Returns the per-group source-byte
    /// receipts in `groups` order, and rolls the per-edge receipts of the
    /// peer pushes into `peer_bytes`.
    fn route(
        &mut self,
        (rid_in, rid_out): (u64, u64),
        transform: TileTransform,
        groups: &[Group],
    ) -> Result<Vec<u64>> {
        if groups.is_empty() {
            return Ok(Vec::new());
        }
        // Per source host: the indices of its groups into `groups`, its plan.
        let mut plans: BTreeMap<usize, (Vec<usize>, JsonArr)> = BTreeMap::new();
        let mut crosses = false;
        for (i, g) in groups.iter().enumerate() {
            let sh = self.assignment[g.wi];
            let mut group = JsonObj::new().u64("wi", g.wi as u64).u64("wo", g.wo as u64);
            // Only a group that leaves its source's host names where to.
            if sh != g.dh {
                crosses = true;
                group = group.u64("dh", g.dh as u64);
            }
            let group = group.raw("k", &keys_json(&g.keys));
            let (indices, plan) = plans.entry(sh).or_default();
            indices.push(i);
            *plan = std::mem::take(plan).raw(&group.build());
        }
        let tr = match transform {
            TileTransform::None => "none",
            TileTransform::Transpose => "transpose",
        };
        let mut order = Vec::with_capacity(plans.len());
        let mut cmds = Vec::with_capacity(plans.len());
        for (host, (indices, plan)) in plans {
            let cmd = JsonObj::new()
                .str("t", "xfer")
                .u64("rid_in", rid_in)
                .u64("rid_out", rid_out)
                .str("tr", tr)
                .raw("groups", &plan.build());
            cmds.push((host, Outgoing::Json(cmd), Check::Read));
            order.push(indices);
        }
        // By the time the replies are in, every peer push is acked.
        let replies = self.exchange(if crosses { "xfer" } else { "move" }, cmds)?;
        let mut receipts = vec![0; groups.len()];
        for ((host, reply), indices) in replies.into_iter().zip(order) {
            if reply.kind() != Some("xferred") {
                return Err(ClusterError::Protocol(format!(
                    "host {host}: expected xferred, got {:?}",
                    reply.kind()
                )));
            }
            let bytes = wire::field_arr(&reply.head, "bytes").map_err(ClusterError::Protocol)?;
            if bytes.len() != indices.len() {
                return Err(ClusterError::Protocol(
                    "move receipt length mismatch".into(),
                ));
            }
            for (i, b) in indices.into_iter().zip(bytes) {
                let bad = || ClusterError::Protocol("bad xferred byte count".into());
                receipts[i] = b.as_u64().ok_or_else(bad)?;
            }
            for edge in wire::field_arr(&reply.head, "edges").map_err(ClusterError::Protocol)? {
                self.stats.peer_bytes +=
                    wire::field_u64(edge, "b").map_err(ClusterError::Protocol)?;
            }
        }
        Ok(receipts)
    }
}

impl Transport for SocketTransport {
    fn set_assignment(&mut self, assignment: &[usize]) {
        // A remap means previously installed placements are stale: a
        // surviving matrix's logical shard may now live on a different
        // physical host. Keep nothing, so the next use re-installs a bound
        // input's shards under the new assignment (unmetered, like any
        // install) and the survivors do not hold the old ones for the life
        // of the session. Queued, so this cannot fail: the replay's first
        // exchange writes them, to physical hosts, which a remap does not
        // rename. A recipe is no placement: a random source stays one, and
        // is generated again where its workers now live.
        if self.assignment != assignment {
            let recipes = std::mem::take(&mut self.recipes);
            let _ = self.retain_values(&|_| false, Release::Queued);
            self.recipes = recipes;
        }
        self.assignment = assignment.to_vec();
    }

    fn generate(&mut self, m: &DistMatrix, seed: u64, matrix: u32) {
        self.recipes.insert(m.rid(), (seed, matrix));
    }

    fn move_tiles(
        &mut self,
        op: &'static str,
        src: &DistMatrix,
        dest: &DistMatrix,
        transform: TileTransform,
        moves: &[MoveItem],
    ) -> Result<u64> {
        self.op_tick();
        self.ensure_resident(src)?;
        // One group per worker pair, whose tiles the oracle metered alike.
        let mut pairs: BTreeMap<(usize, usize), (bool, Group)> = BTreeMap::new();
        for mv in moves {
            let (wi, wo) = (mv.src_w, mv.dest_w);
            let (metered, group) = pairs.entry((wi, wo)).or_insert_with(|| {
                let (dh, keys) = (self.assignment[wo], Vec::new());
                (mv.metered, Group { wi, wo, dh, keys })
            });
            debug_assert_eq!(*metered, mv.metered, "metering is a function of the pair");
            group.keys.push((mv.bi, mv.bj));
        }
        let (metered, groups): (Vec<bool>, Vec<Group>) = pairs.into_values().unzip();
        let receipts = self.route((src.rid(), dest.rid()), transform, &groups)?;
        // The *logical* metering is the oracle's, wherever a tile went.
        let (mut payload, mut free) = (0u64, 0u64);
        for (metered, b) in metered.into_iter().zip(receipts) {
            if metered {
                payload += b;
            } else {
                free += b;
            }
        }
        self.seal_check(op, dest)?;
        self.now_resident(dest);
        self.stats.payload_bytes += payload;
        self.stats.free_bytes += free;
        Ok(payload)
    }

    fn post_stage(&mut self, stage: &Stage) -> Result<()> {
        self.staged = None;
        self.op_tick();
        let Stage {
            op,
            kernel,
            rid,
            meta,
            keys,
        } = *stage;
        // A worker's tasks are one group: its output keys, named once.
        let tasks_of = |w: usize| worker_group(w, &keys[w]);
        let cmds = match kernel {
            StageKernel::Mm(a, b) => {
                self.ensure_resident(a)?;
                self.ensure_resident(b)?;
                let kb = a.meta().col_blocks;
                self.stage_cmds(rid, None, tasks_of, |tasks| {
                    Outgoing::Json(
                        JsonObj::new()
                            .str("t", "mm")
                            .u64("rid_a", a.rid())
                            .u64("rid_b", b.rid())
                            .u64("rid_out", rid)
                            .u64("kb", kb as u64)
                            .u64("rows", meta.rows as u64)
                            .u64("cols", meta.cols as u64)
                            .u64("block", meta.block as u64)
                            .raw("tasks", tasks),
                    )
                })
            }
            StageKernel::Fused(prog, leaves) => {
                let mut rids = JsonArr::new();
                for leaf in leaves {
                    self.ensure_resident(leaf)?;
                    rids = rids.u64(leaf.rid());
                }
                let rids = rids.build();
                // Scalar constants ride as a raw f64 body section the
                // program references by slot index; a program without any
                // is plain JSON.
                let (prog_json, consts) = wire::encode_prog_indexed(prog);
                self.stage_cmds(rid, None, tasks_of, |tasks| {
                    let head = JsonObj::new()
                        .str("t", "fused")
                        .raw("rids", &rids)
                        .raw("prog", &prog_json)
                        .u64("rid_out", rid)
                        .raw("tasks", tasks);
                    if consts.is_empty() {
                        Outgoing::Json(head)
                    } else {
                        Outgoing::Bin(head, binfmt::encode_f64s(&consts))
                    }
                })
            }
        };
        // Resident from the first byte written: a stage that never
        // settles strands nothing the next sweep does not free.
        let holders = (0..keys.len()).filter(|&w| !keys[w].is_empty());
        let hosts = holders.map(|w| self.assignment[w]).collect();
        self.known.insert(rid, hosts);
        let posted = self.post(op, cmds)?;
        self.staged = Some((rid, posted));
        Ok(())
    }

    fn settle_stage(&mut self, out: &DistMatrix) -> Result<()> {
        let Some((_, posted)) = self.staged.take().filter(|(rid, _)| *rid == out.rid()) else {
            return Err(ClusterError::Protocol(format!(
                "no stage was posted for rid {}",
                out.rid()
            )));
        };
        let oracle = oracle_shards(out);
        self.collect(posted, &oracle).map(drop)
    }

    fn run_cpmm(
        &mut self,
        a: &DistMatrix,
        b: &DistMatrix,
        out: &DistMatrix,
        partials: &[PartialDesc],
    ) -> Result<u64> {
        self.op_tick();
        self.ensure_resident(a)?;
        self.ensure_resident(b)?;
        let stage = fresh_rid();
        let n = out.workers();
        let kb = a.meta().col_blocks;

        // Phase 1 (one round): partial products where the k-slices live.
        let mut cmds = Vec::new();
        for (host, ws) in self.hosts_with_ws() {
            let mut ws_arr = JsonArr::new();
            for &w in &ws {
                ws_arr = ws_arr.u64(w as u64);
            }
            cmds.push((
                host,
                Outgoing::Json(
                    JsonObj::new()
                        .str("t", "cpmm1")
                        .u64("rid_a", a.rid())
                        .u64("rid_b", b.rid())
                        .u64("stage", stage)
                        .u64("n", n as u64)
                        .u64("kb", kb as u64)
                        .u64("rows", out.rows() as u64)
                        .u64("cols", out.cols() as u64)
                        .u64("block", out.block_size() as u64)
                        .raw("ws", &ws_arr.build()),
                ),
                Check::Read,
            ));
        }
        let mut worker_descs: Vec<PartialDesc> = Vec::new();
        for (_, reply) in self.exchange("cpmm1", cmds)? {
            for d in wire::field_arr(&reply.head, "descs").map_err(ClusterError::Protocol)? {
                let src_w = wire::field_usize(d, "w").map_err(ClusterError::Protocol)?;
                let bi = wire::field_usize(d, "bi").map_err(ClusterError::Protocol)?;
                let bj = wire::field_usize(d, "bj").map_err(ClusterError::Protocol)?;
                let bytes = wire::field_u64(d, "b").map_err(ClusterError::Protocol)?;
                let dest_w = out
                    .owner_of(bi, bj)
                    .ok_or_else(|| ClusterError::Protocol("cpmm partial outside grid".into()))?;
                worker_descs.push(PartialDesc {
                    bi,
                    bj,
                    src_w,
                    dest_w,
                    bytes,
                });
            }
        }
        let mut want: Vec<PartialDesc> = partials.to_vec();
        want.sort_unstable();
        worker_descs.sort_unstable();
        if want != worker_descs {
            return Err(ClusterError::TransportConformance {
                op: "cpmm",
                detail: format!(
                    "partial sets diverged: oracle {} partials, workers {}",
                    want.len(),
                    worker_descs.len()
                ),
            });
        }

        // Shuffle (one `xfer` round): cross-host partials go peer-to-peer
        // to the output owners, preserving their source identity (the
        // phase-2 combine is keyed by ascending source worker).
        let mut shipped: BTreeMap<(usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
        for p in partials {
            let dh = self.assignment[p.dest_w];
            if self.assignment[p.src_w] != dh {
                shipped.entry((p.src_w, dh)).or_default().push((p.bi, p.bj));
            }
        }
        let groups: Vec<Group> = shipped
            .into_iter()
            .map(|((w, dh), keys)| Group {
                wi: w,
                wo: w,
                dh,
                keys,
            })
            .collect();
        self.route((stage, stage), TileTransform::None, &groups)?;

        // Phase 2 (one round): combine at the owners in ascending source
        // order, retire the staging shards, seal — chained per host.
        let mut srcs_of: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        for p in partials {
            srcs_of.entry((p.bi, p.bj)).or_default().push(p.src_w);
        }
        for v in srcs_of.values_mut() {
            v.sort_unstable();
        }
        let tasks_of = |w: usize| -> Vec<String> {
            let keys = out.worker_blocks(w).keys();
            keys.map(|&(bi, bj)| {
                let srcs = srcs_of.get(&(bi, bj)).into_iter().flatten();
                let srcs = srcs.fold(JsonArr::new(), |a, &s| a.u64(s as u64));
                JsonObj::new()
                    .u64("w", w as u64)
                    .u64("bi", bi as u64)
                    .u64("bj", bj as u64)
                    .raw("srcs", &srcs.build())
                    .build()
            })
            .collect()
        };
        let cmds = self.stage_cmds(out.rid(), Some(stage), tasks_of, |tasks| {
            Outgoing::Json(
                JsonObj::new()
                    .str("t", "cpmm2")
                    .u64("stage", stage)
                    .u64("rid_out", out.rid())
                    .u64("rows", out.rows() as u64)
                    .u64("cols", out.cols() as u64)
                    .u64("block", out.block_size() as u64)
                    .raw("tasks", tasks),
            )
        });
        let posted = self.post("cpmm", cmds)?;
        let oracle = oracle_shards(out);
        self.collect(posted, &oracle)?;
        self.now_resident(out);
        let payload: u64 = partials
            .iter()
            .filter(|p| p.src_w != p.dest_w)
            .map(|p| p.bytes)
            .sum();
        self.stats.payload_bytes += payload;
        Ok(payload)
    }

    fn run_reduce(&mut self, kind: ReduceKind, m: &DistMatrix, partials: &[f64]) -> Result<u64> {
        self.op_tick();
        self.ensure_resident(m)?;
        let kind_name = match kind {
            ReduceKind::Sum => "sum",
            ReduceKind::Norm2 => "norm2",
        };
        // Broadcast values are fully replicated: only worker 0's fold
        // enters the total, so only it is conformance-checked.
        let broadcast = m.scheme() == PartitionScheme::Broadcast;
        let (mut cmds, mut asked) = (Vec::new(), Vec::new());
        for (host, ws) in self.hosts_with_ws() {
            let check: Vec<usize> = if broadcast {
                ws.iter().copied().filter(|&w| w == 0).collect()
            } else {
                ws
            };
            if check.is_empty() {
                continue;
            }
            let mut ws_arr = JsonArr::new();
            for &w in &check {
                ws_arr = ws_arr.u64(w as u64);
            }
            cmds.push((
                host,
                Outgoing::Json(
                    JsonObj::new()
                        .str("t", "reduce")
                        .str("kind", kind_name)
                        .u64("rid", m.rid())
                        .raw("ws", &ws_arr.build()),
                ),
                Check::Read,
            ));
            asked.push(check);
        }
        for ((host, reply), ws) in self.exchange("reduce", cmds)?.into_iter().zip(asked) {
            check_reduce(host, &reply.head, &ws, partials)?;
        }
        Ok(8 * m.workers() as u64)
    }

    fn retain_values(&mut self, live: &dyn Fn(u64) -> bool, release: Release) -> Result<usize> {
        // Forgotten at once, freed by an exchange: every live host holding
        // a shard of a released rid drops all of them.
        let (conns, frees) = (&self.conns, &mut self.frees);
        let mut released = 0;
        self.known.retain(|&rid, hosts| {
            if live(rid) {
                return true;
            }
            released += 1;
            let alive = hosts.iter().filter(|&&h| conns[h].alive);
            frees.extend(alive.map(|&h| (h, rid)));
            false
        });
        self.recipes.retain(|&rid, _| live(rid));
        if released > 0 {
            self.op_tick();
        }
        if release == Release::Now {
            self.exchange("free", Vec::new())?;
        }
        Ok(released)
    }

    fn gather(&mut self, m: &DistMatrix) -> Result<DistMatrix> {
        self.ensure_resident(m)?;
        let broadcast = m.scheme() == PartitionScheme::Broadcast;
        let mut cmds = Vec::new();
        for (host, ws) in self.hosts_with_ws() {
            let mut items = JsonArr::new();
            let mut count = 0usize;
            for &w in &ws {
                if broadcast && w != 0 {
                    continue;
                }
                for &(bi, bj) in m.worker_blocks(w).keys() {
                    count += 1;
                    items = items.raw(
                        &JsonObj::new()
                            .u64("w", w as u64)
                            .u64("bi", bi as u64)
                            .u64("bj", bj as u64)
                            .build(),
                    );
                }
            }
            if count == 0 {
                continue;
            }
            cmds.push((
                host,
                Outgoing::Json(
                    JsonObj::new()
                        .str("t", "collect")
                        .u64("rid", m.rid())
                        .raw("items", &items.build()),
                ),
                Check::Read,
            ));
        }
        let mut placed: Vec<(Option<usize>, usize, usize, Arc<Block>)> = Vec::new();
        for (_, reply) in self.exchange("gather", cmds)? {
            for (w, bi, bj, block) in reply_tiles(&reply).map_err(ClusterError::Protocol)? {
                placed.push((Some(w), bi, bj, Arc::new(block)));
            }
        }
        // Hash placement validates "every tile exactly once, anywhere",
        // which is precisely what a physical gather guarantees (for
        // Broadcast, worker 0's replica stands for the value).
        DistMatrix::from_placed_tiles(
            m.rows(),
            m.cols(),
            m.block_size(),
            PartitionScheme::Hash,
            m.workers(),
            placed,
        )
    }

    fn poll_liveness(&mut self) -> Vec<usize> {
        let liveness = Duration::from_millis(self.opts.liveness_timeout_ms);
        let mut newly = Vec::new();
        for host in 0..self.conns.len() {
            if self.reported.contains(&host) {
                continue;
            }
            let conn = &mut self.conns[host];
            if conn.alive {
                if matches!(conn.child.try_wait(), Ok(Some(_))) {
                    Self::mark_dead(conn);
                } else {
                    // Drain buffered heartbeats without blocking.
                    conn.stream.set_nonblocking(true).ok();
                    loop {
                        match conn.reader.next(&mut conn.stream) {
                            Ok(Some(raw)) => {
                                self.stats.frames += 1;
                                self.stats.frame_bytes += framed_len(raw.len());
                                match Reply::decode(&raw) {
                                    Some(r) if r.kind() == Some("hb") => {
                                        conn.last_hb = Instant::now();
                                        self.stats.heartbeats += 1;
                                    }
                                    // A sequence-tagged reply nobody is
                                    // awaiting: leftover from an exchange
                                    // aborted by another host's death.
                                    // Discard; the stream stays coherent.
                                    Some(r) if r.head.get("q").and_then(Json::as_u64).is_some() => {
                                    }
                                    // An unsolicited frame that is
                                    // neither means the stream is not in
                                    // a state we can reason about.
                                    _ => {
                                        Self::mark_dead(conn);
                                        break;
                                    }
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                Self::mark_dead(conn);
                                break;
                            }
                        }
                    }
                    conn.stream.set_nonblocking(false).ok();
                    conn.stream
                        .set_read_timeout(Some(Duration::from_millis(250)))
                        .ok();
                    if conn.alive && conn.last_hb.elapsed() > liveness {
                        Self::mark_dead(conn);
                    }
                }
            }
            if !conn.alive {
                self.reported.insert(host);
                newly.push(host);
            }
        }
        newly
    }

    fn host_down(&mut self, host: usize) {
        self.reported.insert(host);
        if let Some(conn) = self.conns.get_mut(host) {
            Self::mark_dead(conn);
        }
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            resident_values: self.known.len() as u64,
            ..self.stats
        }
    }

    fn debug_kill_host(&mut self, host: usize) -> bool {
        match self.conns.get_mut(host) {
            Some(conn) => conn.child.kill().is_ok(),
            None => false,
        }
    }

    fn shutdown(&mut self) -> Result<()> {
        if self.shut {
            return Ok(());
        }
        self.shut = true;
        let mut leaked = Vec::new();
        for host in 0..self.conns.len() {
            if self.conns[host].alive {
                // Best-effort goodbye; a host dying here is not a leak.
                match self.request(host, Outgoing::Json(JsonObj::new().str("t", "shutdown"))) {
                    Ok(reply) if reply.kind() == Some("bye") => {}
                    _ => {}
                }
                let conn = &mut self.conns[host];
                conn.alive = false;
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    match conn.child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        _ => {
                            conn.child.kill().ok();
                            conn.child.wait().ok();
                            leaked.push(host);
                            break;
                        }
                    }
                }
            } else {
                // Already-dead hosts were reaped by mark_dead.
                self.conns[host].child.try_wait().ok();
            }
        }
        if leaked.is_empty() {
            Ok(())
        } else {
            Err(ClusterError::Protocol(format!(
                "worker processes leaked past shutdown and were killed: hosts {leaked:?}"
            )))
        }
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        for conn in &mut self.conns {
            conn.child.kill().ok();
            conn.child.wait().ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Row value over 3 logical workers, one block row each.
    fn value() -> DistMatrix {
        let m = dmac_matrix::BlockedMatrix::from_fn(6, 4, 2, |i, j| (i * 4 + j) as f64).unwrap();
        DistMatrix::from_blocked(&m, PartitionScheme::Row, 3)
    }

    /// A reply of kind `t` whose array `key` holds these objects.
    fn reply(t: &str, key: &str, items: impl IntoIterator<Item = JsonObj>) -> Json {
        let arr = arr_of(items.into_iter().map(JsonObj::build));
        Json::parse(&JsonObj::new().str("t", t).raw(key, &arr).build()).unwrap()
    }

    /// Each way a reply can fail to answer for workers 0 and 2: `answer`
    /// renders one worker's entry.
    fn short_answers(answer: impl Fn(usize) -> JsonObj) -> [(&'static str, Vec<JsonObj>); 4] {
        [
            ("an empty array", vec![]),
            ("a missing worker", vec![answer(0)]),
            ("a duplicated worker", vec![answer(0), answer(2), answer(2)]),
            (
                "a worker not asked about",
                vec![answer(0), answer(1), answer(2)],
            ),
        ]
    }

    /// A `sealed` reply answers for exactly the workers it was asked
    /// about, each once, in any order; a shard it gets wrong is a
    /// conformance error naming the primitive.
    #[test]
    fn a_seal_answers_for_every_worker_it_was_asked_about() {
        let oracle = oracle_shards(&value());
        let shard = |w: usize, x: u64| {
            let (n, _) = oracle[w];
            let obj = JsonObj::new().u64("w", w as u64).u64("n", n as u64);
            obj.str("x", &wire::hex_u64(x))
        };
        let honest = |w: usize| shard(w, oracle[w].1);
        let ws = [0, 2];
        let seal = |items| check_seal("rmm1", 1, &reply("sealed", "shards", items), &ws, &oracle);
        assert!(seal(vec![honest(2), honest(0)]).is_ok());
        for (what, items) in short_answers(honest) {
            let err = seal(items).expect_err(what);
            assert!(matches!(err, ClusterError::Protocol(_)), "{what}: {err}");
        }
        let err = seal(vec![honest(0), shard(2, oracle[2].1 ^ 1)]).unwrap_err();
        let conformance = matches!(err, ClusterError::TransportConformance { op: "rmm1", .. });
        assert!(conformance, "{err}");
    }

    /// The same contract for a `reduced` reply: every asked worker's
    /// partial once, bit-equal to the oracle's.
    #[test]
    fn a_reduction_answers_for_every_worker_it_was_asked_about() {
        let partials = [1.5, -0.0, 2.25];
        let part = |w: usize, x: f64| {
            JsonObj::new()
                .u64("w", w as u64)
                .str("x", &wire::hex_f64(x))
        };
        let honest = |w: usize| part(w, partials[w]);
        let ws = [0, 2];
        let reduce = |items| check_reduce(1, &reply("reduced", "parts", items), &ws, &partials);
        assert!(reduce(vec![honest(0), honest(2)]).is_ok());
        for (what, items) in short_answers(honest) {
            let err = reduce(items).expect_err(what);
            assert!(matches!(err, ClusterError::Protocol(_)), "{what}: {err}");
        }
        let err = reduce(vec![
            honest(0),
            part(2, f64::from_bits(2.25f64.to_bits() + 1)),
        ])
        .unwrap_err();
        let conformance = matches!(err, ClusterError::TransportConformance { op: "reduce", .. });
        assert!(conformance, "{err}");
    }
}
