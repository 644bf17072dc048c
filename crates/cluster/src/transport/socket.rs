//! The real multi-process backend: a coordinator embedded in the session
//! process driving `dmac-workerd` children over TCP. What the two sides
//! say to each other is [`proto`]'s: its module doc holds the protocol
//! table.
//!
//! ## Topology and membership
//!
//! The coordinator binds `127.0.0.1:0`, spawns one worker process per
//! physical host, and each worker connects back with a `hello` naming its
//! host, its peer listener, and its promise to speak the `DMB3` tile codec
//! ([`super::binfmt`]). A hello without that promise (a stale
//! `dmac-workerd` found by [`locate_workerd`]), without a peer address, or
//! from a host that does not exist fails the launch with
//! [`ClusterError::Protocol`]. Then every worker gets the peer table.
//!
//! Control traffic is a star, but *tile payload* never crosses the
//! coordinator except to seed a bound input (`install`) or read a value
//! back (`collect`); a `random` source's workers generate their own tiles.
//! Every tile move — a shuffle, an extract, CPMM's partial shuffle
//! — is one `xfer` routing plan per source host, built in one place
//! (`SocketTransport::route`): the worker installs the groups that stay
//! and pushes the rest to their hosts' peer listeners, and its `xferred`
//! reply rolls one byte receipt per group and per-edge frame stats up
//! ([`TransportStats::peer_bytes`]).
//!
//! ## Pipelined dispatch
//!
//! An exchange is posted, then collected: `post` writes every command to
//! every host, each beside the check its reply must pass, before any reply
//! is read; `collect` reads the replies in order and applies the checks,
//! so a stage costs one round-trip ([`TransportStats::rounds`]). A reply of
//! another kind than its command has is a protocol error. A compute stage
//! is posted before the oracle computes it and collected after, so both
//! compute at once. A plan's `free`s ride the head of the next exchange at
//! no round of their own. Replies echo their command's sequence number;
//! after an exchange aborted by a worker's death the stale ones are
//! discarded, so a connection re-synchronises without draining logic.
//!
//! ## Liveness
//!
//! Workers heartbeat from a thread of their own, so beats arrive while
//! they compute. A host whose connection closes or errors, whose process
//! is reaped, or that has not beaten for two seconds is lost:
//! [`ClusterError::WorkerLost`], the error injected faults produce, which
//! lineage recovery already handles. So is the host a `peerfail` names —
//! if it is a host of the cluster.
//!
//! ## Metering and conformance
//!
//! Payload is metered per *logical* move, from the byte sizes workers
//! report, alike for pushed and locally installed tiles — so
//! `transport_bytes == wire_bytes` whatever the worker → host assignment.
//! After every mirrored primitive each host *seals* the destination value
//! with canonical per-shard checksums ([`wire::shard_checksum`]) that must
//! equal the oracle's, answering for exactly the workers it was asked
//! about: a divergence surfaces at the primitive that caused it. Seals go
//! out only after every `xferred` receipt of a move is in, so every peer
//! install happens-before the seal.
//!
//! [`proto`]: super::proto

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cluster::ReduceKind;
use crate::dist::{fresh_rid, DistMatrix, View};
use crate::error::{ClusterError, Result};
use crate::partition::PartitionScheme;
use crate::transport::binfmt;
use crate::transport::frame::{framed_len, write_frame_bytes, FrameReader, MAX_FRAME};
use crate::transport::proto::{
    Cmd, Combine, Desc, Framed, Group, Key, Mul, Place, Placed, Reply, Route, Shard,
};
use crate::transport::wire;
use crate::transport::{MoveItem, PartialDesc, Release, Stage, Transport, TransportStats};

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

/// Worker heartbeat period (milliseconds), passed to each spawned
/// daemon as `--heartbeat-ms`.
const HEARTBEAT_MS: u64 = 100;

/// A host with no heartbeat for this long (milliseconds) is declared
/// dead; workers hear it in the `peers` command as `timeout_ms`.
const LIVENESS_TIMEOUT_MS: u64 = 2000;

/// Options of the socket backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketOptions {
    /// Test hook: SIGKILL host `.0`'s process at moment `.1`, *without*
    /// marking it dead — detection must flow through the organic
    /// liveness machinery.
    pub kill: Option<(usize, KillAt)>,
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
}

/// Worker processes spawned and not yet members: killed and reaped when
/// the launch gives up on them.
struct Spawned(Vec<Child>);

impl Drop for Spawned {
    fn drop(&mut self) {
        for child in &mut self.0 {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// What a posted command's reply must be. It travels beside its command
/// in the posted list, so an exchange aborted by a worker's death takes
/// its checks with it.
#[derive(Debug)]
enum Check {
    /// [`Reply::Ok`]: an install, an op that stores its results, a `free`.
    Ok,
    /// [`Reply::Sealed`], answering for exactly these logical workers,
    /// each shard equal to the oracle's.
    Seal(Vec<usize>),
    /// Handed back to the caller, which holds it to the reply its command
    /// has.
    Read,
}

/// An exchange written and not yet read: the primitive it serves, and per
/// command its host, sequence number and check.
#[derive(Debug)]
struct Posted {
    op: &'static str,
    pending: Vec<(usize, u64, Check)>,
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

/// A reply of another kind than the `want` its command has.
fn unexpected(host: usize, want: &str, got: &Reply) -> ClusterError {
    ClusterError::Protocol(format!("host {host}: expected {want}, got {}", got.kind()))
}

/// A reply that reports a failure instead of answering: a worker's `err`,
/// or a `peerfail` — the loss of the peer host it names, which must be
/// one of the cluster's `hosts`.
fn failure(host: usize, hosts: usize, reply: &Reply) -> Option<ClusterError> {
    match *reply {
        Reply::Err { ref msg } => Some(ClusterError::Protocol(format!("host {host}: {msg}"))),
        Reply::PeerFail { host: dead } if dead < hosts => Some(ClusterError::WorkerLost(dead)),
        Reply::PeerFail { host: dead } => Some(ClusterError::Protocol(format!(
            "host {host}: peerfail names host {dead}, not one of the {hosts}"
        ))),
        _ => None,
    }
}

/// The host id and peer address a worker's first frame announces: a
/// `hello` from one of `workers` hosts that speaks `DMB3` — a stale
/// `daemon` does not.
fn hello_of(raw: &[u8], workers: usize, daemon: &Path) -> Result<(usize, String)> {
    let stale = |host| {
        ClusterError::Protocol(format!(
            "worker {host} ({}) does not speak the DMB3 tile codec \
             (stale dmac-workerd? rebuild it, or set DMAC_WORKERD)",
            daemon.display()
        ))
    };
    match Reply::decode(raw).msg {
        Ok(Reply::Hello { host, bin, .. }) if bin != Some(binfmt::VERSION) => Err(stale(host)),
        Ok(Reply::Hello { host, peer, .. }) if host < workers => Ok((host, peer)),
        _ => Err(ClusterError::Protocol(format!(
            "bad hello frame: {}",
            String::from_utf8_lossy(raw)
        ))),
    }
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
    reply: Reply,
    ws: &[usize],
    oracle: &[(usize, u64)],
) -> Result<()> {
    let shards = match reply {
        Reply::Sealed { shards } => shards,
        other => return Err(unexpected(host, "sealed", &other)),
    };
    let answered: Vec<usize> = shards.iter().map(|s| s.w).collect();
    answers_each_once(host, "seal", ws, &answered)?;
    for Shard { w, n, x } in shards {
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
fn check_reduce(host: usize, reply: Reply, ws: &[usize], partials: &[f64]) -> Result<()> {
    let parts = match reply {
        Reply::Reduced { parts } => parts,
        other => return Err(unexpected(host, "reduced", &other)),
    };
    let answered: Vec<usize> = parts.iter().map(|p| p.w).collect();
    answers_each_once(host, "reduce", ws, &answered)?;
    for part in parts {
        let (w, x) = (part.w, part.x);
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
    match reply {
        Reply::Ok => Ok(()),
        other => Err(unexpected(host, "ok", other)),
    }
}

/// `items` cut into runs whose `size`s sum to at most `budget` — or one
/// item alone, where it is past it.
fn chunks<T>(
    items: impl IntoIterator<Item = T>,
    size: impl Fn(&T) -> usize,
    budget: usize,
) -> Vec<Vec<T>> {
    let (mut runs, mut run, mut bytes) = (Vec::new(), Vec::new(), 0);
    for item in items {
        let n = size(&item);
        if !run.is_empty() && bytes + n > budget {
            runs.push(std::mem::take(&mut run));
            bytes = 0;
        }
        bytes += n;
        run.push(item);
    }
    runs.extend((!run.is_empty()).then_some(run));
    runs
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
        let io_err = |what: &str, e: io::Error| ClusterError::Protocol(format!("{what}: {e}"));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io_err("bind", e))?;
        let addr = listener.local_addr().map_err(|e| io_err("local_addr", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| io_err("nonblocking", e))?;

        // Whatever fails below, no spawned worker outlives the launch.
        let mut children = Spawned(Vec::with_capacity(workers));
        for h in 0..workers {
            let child = Command::new(&bin)
                .arg("--connect")
                .arg(addr.to_string())
                .arg("--host-id")
                .arg(h.to_string())
                .arg("--heartbeat-ms")
                .arg(HEARTBEAT_MS.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn();
            children
                .0
                .push(child.map_err(|e| io_err(&format!("spawn {}", bin.display()), e))?);
        }

        let deadline = Instant::now() + Duration::from_secs(15);
        let mut slots: Vec<Option<(TcpStream, FrameReader, String)>> =
            (0..workers).map(|_| None).collect();
        let mut accepted = 0usize;
        while accepted < workers {
            if Instant::now() > deadline {
                return Err(ClusterError::Protocol(format!(
                    "membership timed out: {accepted}/{workers} workers registered"
                )));
            }
            if let Some(status) = children.0.iter_mut().find_map(|c| c.try_wait().ok()?) {
                return Err(ClusterError::Protocol(format!(
                    "worker exited during startup ({status})"
                )));
            }
            let mut stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
                Err(e) => return Err(io_err("accept", e)),
            };
            stream.set_nodelay(true).ok();
            stream
                .set_read_timeout(Some(Duration::from_millis(250)))
                .ok();
            let mut reader = FrameReader::default();
            let hello = loop {
                if Instant::now() > deadline {
                    return Err(ClusterError::Protocol("hello timed out".into()));
                }
                if let Some(hello) = reader
                    .next(&mut stream)
                    .map_err(|e| io_err("hello read", e))?
                {
                    break hello;
                }
            };
            let (h, peer) = hello_of(&hello, workers, &bin)?;
            if slots[h].is_some() {
                return Err(ClusterError::Protocol(format!("host {h} said hello twice")));
            }
            slots[h] = Some((stream, reader, peer));
            accepted += 1;
        }

        let slots = slots
            .into_iter()
            .map(|slot| slot.expect("all slots filled"));
        let (mut conns, mut peers) = (Vec::with_capacity(workers), Vec::with_capacity(workers));
        for ((stream, reader, peer), child) in slots.zip(std::mem::take(&mut children.0)) {
            let (last_hb, alive, seq) = (Instant::now(), true, 0);
            let conn = Conn {
                stream,
                reader,
                child,
                last_hb,
                alive,
                seq,
            };
            conns.push(conn);
            peers.push(peer);
        }
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
        for host in 0..workers {
            let peers = peers.clone();
            let timeout_ms = LIVENESS_TIMEOUT_MS;
            let reply = me.request(host, &Cmd::Peers { peers, timeout_ms })?;
            check_ok(host, &reply)?;
        }
        Ok(me)
    }

    fn mark_dead(conn: &mut Conn) {
        conn.alive = false;
        conn.child.kill().ok();
        conn.child.wait().ok();
    }

    /// Stamp the next sequence number, encode, write, and account — the
    /// send half of a round-trip.
    fn send_cmd(&mut self, host: usize, cmd: &Cmd) -> Result<u64> {
        let stats = &mut self.stats;
        let conn = &mut self.conns[host];
        if !conn.alive {
            return Err(ClusterError::WorkerLost(host));
        }
        let seq = conn.seq;
        conn.seq += 1;
        let payload = cmd.encode(Some(seq));
        stats.frames += 1;
        stats.frame_bytes += framed_len(payload.len());
        if write_frame_bytes(&mut conn.stream, &payload).is_err() {
            Self::mark_dead(conn);
            return Err(ClusterError::WorkerLost(host));
        }
        Ok(seq)
    }

    /// Read the next frame from `conn`, if one has arrived: counted,
    /// decoded, and a heartbeat taken (`last_hb`, `heartbeats`) before it
    /// is handed on. `Ok(None)`: nothing yet.
    fn read_reply(
        conn: &mut Conn,
        stats: &mut TransportStats,
    ) -> io::Result<Option<Framed<Reply>>> {
        let Some(raw) = conn.reader.next(&mut conn.stream)? else {
            return Ok(None);
        };
        stats.frames += 1;
        stats.frame_bytes += framed_len(raw.len());
        let framed = Reply::decode(&raw);
        if let Ok(Reply::Hb { .. }) = framed.msg {
            conn.last_hb = Instant::now();
            stats.heartbeats += 1;
        }
        Ok(Some(framed))
    }

    /// Receive the reply carrying sequence number `want` from `host`,
    /// tolerating interleaved heartbeats, discarding stale replies from
    /// aborted stages, and watching the liveness deadline.
    fn recv_reply(&mut self, host: usize, want: u64) -> Result<Reply> {
        let liveness = Duration::from_millis(LIVENESS_TIMEOUT_MS);
        let (stats, conn) = (&mut self.stats, &mut self.conns[host]);
        if !conn.alive {
            return Err(ClusterError::WorkerLost(host));
        }
        let reply = loop {
            match Self::read_reply(conn, stats) {
                Ok(Some(Framed {
                    msg: Ok(Reply::Hb { .. }),
                    ..
                })) => {}
                // A stale reply from an exchange aborted by worker loss:
                // discard; the connection re-synchronises by sequence
                // number.
                Ok(Some(Framed { q: Some(q), .. })) if q < want => {}
                Ok(Some(Framed { q: Some(q), msg })) if q == want => {
                    let bad = |e| ClusterError::Protocol(format!("host {host}: {e}"));
                    break msg.map_err(bad)?;
                }
                Ok(Some(Framed { msg, .. })) => {
                    Self::mark_dead(conn);
                    let why = msg.err().unwrap_or_else(|| "bad reply sequence".into());
                    return Err(ClusterError::Protocol(format!(
                        "host {host} desynchronised ({why})"
                    )));
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
        };
        match failure(host, self.conns.len(), &reply) {
            // A worker's peer push failed: the *destination* host is the
            // casualty. Fold it into the normal worker-loss path.
            Some(ClusterError::WorkerLost(dead)) => {
                Self::mark_dead(&mut self.conns[dead]);
                Err(ClusterError::WorkerLost(dead))
            }
            Some(e) => Err(e),
            None => Ok(reply),
        }
    }

    /// One blocking round-trip (membership and shutdown).
    fn request(&mut self, host: usize, cmd: &Cmd) -> Result<Reply> {
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
    fn post(&mut self, op: &'static str, cmds: Vec<(usize, Cmd, Check)>) -> Result<Posted> {
        let conns = &self.conns;
        self.frees.retain(|&(host, _)| conns[host].alive);
        if cmds.is_empty() && self.frees.is_empty() {
            let pending = Vec::new();
            return Ok(Posted { op, pending });
        }
        let queued = std::mem::take(&mut self.frees);
        let frees = queued
            .iter()
            .map(|&(h, rid)| (h, Cmd::Free { rid }, Check::Ok));
        let all: Vec<_> = frees.chain(cmds).collect();
        let mut pending = Vec::with_capacity(all.len());
        for (i, (host, cmd, check)) in all.into_iter().enumerate() {
            match self.send_cmd(host, &cmd) {
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
                Check::Seal(ws) => check_seal(posted.op, host, reply, &ws, oracle)?,
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
        cmds: Vec<(usize, Cmd, Check)>,
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
        let mut per_host: BTreeMap<usize, Vec<Placed>> = BTreeMap::new();
        let mut bytes = 0u64;
        for w in 0..m.workers() {
            let host = self.assignment[w];
            for (&(bi, bj), tile) in m.worker_blocks(w) {
                bytes += tile.actual_bytes() as u64;
                let tile = (w, bi, bj, Arc::clone(tile));
                per_host.entry(host).or_default().push(tile);
            }
        }
        // Each install's tile section, count word included, within half
        // the frame ceiling.
        let budget = (MAX_FRAME / 2) as usize - 4;
        let mut cmds = Vec::new();
        for (host, tiles) in per_host {
            for tiles in chunks(tiles, |t| binfmt::tile_wire_len(&t.3), budget) {
                cmds.push((
                    host,
                    Cmd::Install {
                        rid: m.rid(),
                        tiles,
                    },
                    Check::Ok,
                ));
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
        let (rid, grid) = (m.rid(), *m.meta());
        // No command makes more dense bytes than an install frame carries.
        let dense =
            |&(_, (bi, bj)): &(usize, Key)| 8 * grid.block_rows_of(bi) * grid.block_cols_of(bj);
        let mut cmds = Vec::new();
        for (host, ws) in self.hosts_with_ws() {
            let mut tiles: Vec<(usize, Key)> = Vec::new();
            for &w in &ws {
                let start = tiles.len();
                tiles.extend(m.worker_blocks(w).keys().map(|&k| (w, k)));
                tiles[start..].sort_unstable();
            }
            for run in chunks(tiles, dense, (MAX_FRAME / 2) as usize) {
                let mut tasks: Vec<Group> = Vec::new();
                for (w, key) in run {
                    match tasks.last_mut() {
                        Some(group) if group.w == w => group.keys.push(key),
                        _ => tasks.push(Group { w, keys: vec![key] }),
                    }
                }
                let cmd = Cmd::Generate {
                    rid,
                    seed,
                    matrix,
                    grid,
                    tasks,
                };
                cmds.push((host, cmd, Check::Ok));
            }
            cmds.push((
                host,
                Cmd::Seal {
                    rid,
                    ws: ws.clone(),
                },
                Check::Seal(ws),
            ));
        }
        let posted = self.post("generate", cmds)?;
        let oracle = oracle_shards(m);
        self.collect(posted, &oracle)?;
        self.now_resident(m);
        Ok(())
    }

    /// Verify a value's physical shards against the oracle — one
    /// pipelined exchange across all hosts, the oracle's checksums
    /// computed while the workers compute theirs.
    fn seal_check(&mut self, op: &'static str, value: &DistMatrix) -> Result<()> {
        let rid = value.rid();
        let hosts = self.hosts_with_ws().into_iter();
        let cmds = hosts
            .map(|(host, ws)| {
                (
                    host,
                    Cmd::Seal {
                        rid,
                        ws: ws.clone(),
                    },
                    Check::Seal(ws),
                )
            })
            .collect();
        let posted = self.post(op, cmds)?;
        let oracle = oracle_shards(value);
        self.collect(posted, &oracle).map(drop)
    }

    /// The commands of one compute stage: every host gets the op command
    /// for the output tiles its workers own (none if they own nothing),
    /// then — CPMM phase 2's extra — the `free` of the `staging` rid, then
    /// the `seal` proving `rid`; the worker runs them in order, so op +
    /// proof cost one round-trip for the whole stage. `tasks_of(w)` gives
    /// worker `w`'s tasks, `op_cmd` a host's command from its tasks.
    fn stage_cmds<T>(
        &self,
        rid: u64,
        staging: Option<u64>,
        tasks_of: impl Fn(usize) -> Vec<T>,
        op_cmd: impl Fn(Vec<T>) -> Cmd,
    ) -> Vec<(usize, Cmd, Check)> {
        let mut cmds = Vec::new();
        for (host, ws) in self.hosts_with_ws() {
            let tasks: Vec<T> = ws.iter().flat_map(|&w| tasks_of(w)).collect();
            if !tasks.is_empty() {
                cmds.push((host, op_cmd(tasks), Check::Ok));
            }
            if let Some(stage) = staging {
                cmds.push((host, Cmd::Free { rid: stage }, Check::Ok));
            }
            let seal = Cmd::Seal {
                rid,
                ws: ws.clone(),
            };
            cmds.push((host, seal, Check::Seal(ws)));
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
    fn route(&mut self, (rid_in, rid_out): (u64, u64), groups: Vec<Route>) -> Result<Vec<u64>> {
        let mut receipts = vec![0; groups.len()];
        if groups.is_empty() {
            return Ok(receipts);
        }
        let crosses = groups.iter().any(|g| g.dh.is_some());
        // Per source host: the indices of its groups into `groups`, its plan.
        let mut plans: BTreeMap<usize, (Vec<usize>, Vec<Route>)> = BTreeMap::new();
        for (i, g) in groups.into_iter().enumerate() {
            let (indices, plan) = plans.entry(self.assignment[g.wi]).or_default();
            indices.push(i);
            plan.push(g);
        }
        let mut order = Vec::with_capacity(plans.len());
        let mut cmds = Vec::with_capacity(plans.len());
        for (host, (indices, groups)) in plans {
            let cmd = Cmd::Xfer {
                rid_in,
                rid_out,
                groups,
            };
            cmds.push((host, cmd, Check::Read));
            order.push(indices);
        }
        // By the time the replies are in, every peer push is acked.
        let replies = self.exchange(if crosses { "xfer" } else { "move" }, cmds)?;
        for ((host, reply), indices) in replies.into_iter().zip(order) {
            let (bytes, edges) = match reply {
                Reply::Xferred { bytes, edges } => (bytes, edges),
                other => return Err(unexpected(host, "xferred", &other)),
            };
            if bytes.len() != indices.len() {
                return Err(ClusterError::Protocol(
                    "move receipt length mismatch".into(),
                ));
            }
            for (i, b) in indices.into_iter().zip(bytes) {
                receipts[i] = b;
            }
            self.stats.peer_bytes += edges.iter().map(|e| e.b).sum::<u64>();
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
        moves: &[MoveItem],
    ) -> Result<u64> {
        self.op_tick();
        self.ensure_resident(src)?;
        // One group per worker pair, whose tiles the oracle metered alike.
        // Only a group that leaves its source's host names where to.
        let mut pairs: BTreeMap<(usize, usize), (bool, Route)> = BTreeMap::new();
        for mv in moves {
            let (wi, wo) = (mv.src_w, mv.dest_w);
            let (metered, group) = pairs.entry((wi, wo)).or_insert_with(|| {
                let dh = self.assignment[wo];
                let dh = (dh != self.assignment[wi]).then_some(dh);
                let keys = Vec::new();
                (mv.metered, Route { wi, wo, dh, keys })
            });
            debug_assert_eq!(*metered, mv.metered, "metering is a function of the pair");
            group.keys.push((mv.bi, mv.bj));
        }
        let (metered, groups): (Vec<bool>, Vec<Route>) = pairs.into_values().unzip();
        let receipts = self.route((src.rid(), dest.rid()), groups)?;
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
            prog,
            leaves,
            rmms,
            rid,
            keys,
            ..
        } = *stage;
        // A worker's tasks are one group: its output keys, named once.
        let tasks_of = |w: usize| {
            let group = Group {
                w,
                keys: keys[w].clone(),
            };
            (!keys[w].is_empty()).then_some(group).into_iter().collect()
        };
        let operands = rmms.iter().flat_map(|rmm| [rmm.a, rmm.b]);
        for v in leaves.iter().copied().chain(operands) {
            self.ensure_resident(v.m)?;
        }
        let rids: Vec<u64> = leaves.iter().map(|leaf| leaf.m.rid()).collect();
        // Every leaf's bit, or none when no leaf is a view.
        let tr: Vec<bool> = leaves.iter().map(|leaf| leaf.transposed).collect();
        let tr = tr.contains(&true).then_some(tr);
        let muls: Vec<Mul> = (rmms.iter())
            .map(|rmm| Mul {
                a: rmm.a.m.rid(),
                b: rmm.b.m.rid(),
                ta: rmm.a.transposed.then_some(true),
                tb: rmm.b.transposed.then_some(true),
                kb: rmm.a.meta().col_blocks,
            })
            .collect();
        let cmds = self.stage_cmds(rid, None, tasks_of, |tasks| Cmd::Fused {
            rids: rids.clone(),
            tr: tr.clone(),
            muls: muls.clone(),
            prog: prog.to_vec(),
            rid_out: rid,
            tasks,
        });
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
        a: View<&DistMatrix>,
        b: View<&DistMatrix>,
        out: &DistMatrix,
        partials: &[PartialDesc],
    ) -> Result<u64> {
        self.op_tick();
        self.ensure_resident(a.m)?;
        self.ensure_resident(b.m)?;
        let stage = fresh_rid();
        let (n, kb, grid) = (out.workers(), a.meta().col_blocks, *out.meta());

        // Phase 1 (one round): partial products where the k-slices live.
        let (rid_a, rid_b) = (a.m.rid(), b.m.rid());
        let (ta, tb) = (a.transposed.then_some(true), b.transposed.then_some(true));
        let cmds = self.hosts_with_ws().into_iter().map(|(host, ws)| {
            let cmd = Cmd::Cpmm1 {
                rid_a,
                rid_b,
                ta,
                tb,
                stage,
                n,
                kb,
                grid,
                ws,
            };
            (host, cmd, Check::Read)
        });
        let mut worker_descs: Vec<PartialDesc> = Vec::new();
        for (host, reply) in self.exchange("cpmm1", cmds.collect())? {
            let descs = match reply {
                Reply::Partials { descs } => descs,
                other => return Err(unexpected(host, "partials", &other)),
            };
            for Desc { w, bi, bj, b } in descs {
                let outside = || ClusterError::Protocol("cpmm partial outside grid".into());
                let dest_w = out.owner_of(bi, bj).ok_or_else(outside)?;
                let (src_w, bytes) = (w, b);
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
        let mut shipped: BTreeMap<(usize, usize), Route> = BTreeMap::new();
        for p in partials {
            let (w, dh) = (p.src_w, self.assignment[p.dest_w]);
            if self.assignment[w] != dh {
                let keys = Vec::new();
                let group = shipped.entry((w, dh)).or_insert(Route {
                    wi: w,
                    wo: w,
                    dh: Some(dh),
                    keys,
                });
                group.keys.push((p.bi, p.bj));
            }
        }
        let groups = shipped.into_values().collect();
        self.route((stage, stage), groups)?;

        // Phase 2 (one round): combine at the owners in ascending source
        // order, retire the staging shards, seal — chained per host.
        let mut srcs_of: HashMap<Key, Vec<usize>> = HashMap::new();
        for p in partials {
            srcs_of.entry((p.bi, p.bj)).or_default().push(p.src_w);
        }
        for v in srcs_of.values_mut() {
            v.sort_unstable();
        }
        let tasks_of = |w: usize| {
            let keys = out.worker_blocks(w).keys();
            keys.map(|&(bi, bj)| {
                let srcs = srcs_of.get(&(bi, bj)).cloned().unwrap_or_default();
                Combine { w, bi, bj, srcs }
            })
            .collect()
        };
        let rid_out = out.rid();
        let cmds = self.stage_cmds(rid_out, Some(stage), tasks_of, |tasks| Cmd::Cpmm2 {
            stage,
            rid_out,
            grid,
            tasks,
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
        // Broadcast values are fully replicated: only worker 0's fold
        // enters the total, so only it is conformance-checked.
        let broadcast = m.scheme() == PartitionScheme::Broadcast;
        let (mut cmds, mut asked) = (Vec::new(), Vec::new());
        for (host, ws) in self.hosts_with_ws() {
            let ws: Vec<usize> = if broadcast {
                ws.into_iter().filter(|&w| w == 0).collect()
            } else {
                ws
            };
            if ws.is_empty() {
                continue;
            }
            let cmd = Cmd::Reduce {
                kind,
                rid: m.rid(),
                ws: ws.clone(),
            };
            cmds.push((host, cmd, Check::Read));
            asked.push(ws);
        }
        for ((host, reply), ws) in self.exchange("reduce", cmds)?.into_iter().zip(asked) {
            check_reduce(host, reply, &ws, partials)?;
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
            let mut items = Vec::new();
            for &w in &ws {
                if broadcast && w != 0 {
                    continue;
                }
                items.extend(
                    m.worker_blocks(w)
                        .keys()
                        .map(|&(bi, bj)| Place { w, bi, bj }),
                );
            }
            if !items.is_empty() {
                let cmd = Cmd::Collect {
                    rid: m.rid(),
                    items,
                };
                cmds.push((host, cmd, Check::Read));
            }
        }
        let mut placed = Vec::new();
        for (host, reply) in self.exchange("gather", cmds)? {
            match reply {
                Reply::Tiles { tiles } => {
                    placed.extend(tiles.into_iter().map(|(w, bi, bj, t)| (Some(w), bi, bj, t)));
                }
                other => return Err(unexpected(host, "tiles", &other)),
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
        let liveness = Duration::from_millis(LIVENESS_TIMEOUT_MS);
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
                        match Self::read_reply(conn, &mut self.stats) {
                            Ok(Some(Framed {
                                msg: Ok(Reply::Hb { .. }),
                                ..
                            })) => {}
                            // A sequence-tagged reply nobody is awaiting:
                            // leftover from an exchange aborted by another
                            // host's death. Discard; the stream stays
                            // coherent.
                            Ok(Some(Framed { q: Some(_), .. })) => {}
                            Ok(None) => break,
                            // An unsolicited frame that is neither means
                            // the stream is not in a state we can reason
                            // about.
                            Ok(Some(_)) | Err(_) => {
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
                let _ = self.request(host, &Cmd::Shutdown);
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
    use crate::transport::proto::Part;

    /// A Row value over 3 logical workers, one block row each.
    fn value() -> DistMatrix {
        let m = dmac_matrix::BlockedMatrix::from_fn(6, 4, 2, |i, j| (i * 4 + j) as f64).unwrap();
        DistMatrix::from_blocked(&m, PartitionScheme::Row, 3)
    }

    /// Each way a reply can fail to answer for workers 0 and 2: `answer`
    /// gives one worker's entry.
    fn short_answers<T>(answer: impl Fn(usize) -> T) -> [(&'static str, Vec<T>); 4] {
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
        let shard = |w: usize, x: u64| Shard {
            w,
            n: oracle[w].0,
            x,
        };
        let honest = |w: usize| shard(w, oracle[w].1);
        let ws = [0, 2];
        let seal = |shards| check_seal("rmm1", 1, Reply::Sealed { shards }, &ws, &oracle);
        assert!(seal(vec![honest(2), honest(0)]).is_ok());
        for (what, shards) in short_answers(honest) {
            let err = seal(shards).expect_err(what);
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
        let part = |w: usize, x: f64| Part { w, x };
        let honest = |w: usize| part(w, partials[w]);
        let ws = [0, 2];
        let reduce = |parts| check_reduce(1, Reply::Reduced { parts }, &ws, &partials);
        assert!(reduce(vec![honest(0), honest(2)]).is_ok());
        for (what, parts) in short_answers(honest) {
            let err = reduce(parts).expect_err(what);
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

    /// A reply is held to its kind: each check refuses a well-formed reply
    /// of another kind — one that even carries the entries the check
    /// reads — as a protocol error naming both kinds.
    #[test]
    fn a_reply_of_another_kind_is_a_protocol_error() {
        let oracle = oracle_shards(&value());
        let partials = [1.5, -0.0, 2.25];
        let ws = [0, 2];
        let sealed = Reply::Sealed {
            shards: ws
                .iter()
                .map(|&w| Shard {
                    w,
                    n: oracle[w].0,
                    x: oracle[w].1,
                })
                .collect(),
        };
        let reduced = Reply::Reduced {
            parts: ws.iter().map(|&w| Part { w, x: partials[w] }).collect(),
        };
        let says = |got: Result<()>, want: &str| match got {
            Err(ClusterError::Protocol(msg)) => assert_eq!(msg, want),
            other => panic!("{want}: got {other:?}"),
        };
        says(check_ok(1, &sealed), "host 1: expected ok, got sealed");
        let seal = check_seal("rmm1", 1, reduced.clone(), &ws, &oracle);
        says(seal, "host 1: expected sealed, got reduced");
        let reduce = check_reduce(1, sealed.clone(), &ws, &partials);
        says(reduce, "host 1: expected reduced, got sealed");
        let reduce = check_reduce(1, Reply::Ok, &ws, &partials);
        says(reduce, "host 1: expected reduced, got ok");
        // Each answers its own kind.
        assert!(check_ok(1, &Reply::Ok).is_ok());
        assert!(check_seal("rmm1", 1, sealed, &ws, &oracle).is_ok());
        assert!(check_reduce(1, reduced, &ws, &partials).is_ok());
    }

    /// A `peerfail` is the loss of a host of the cluster: one naming a
    /// host that does not exist is a protocol error, not a worker to
    /// decommission. A worker's `err` is a protocol error naming the host.
    #[test]
    fn a_peerfail_names_a_host_of_the_cluster() {
        let lost = failure(1, 4, &Reply::PeerFail { host: 3 });
        assert!(
            matches!(lost, Some(ClusterError::WorkerLost(3))),
            "{lost:?}"
        );
        for dead in [4, 5, 1 << 40] {
            let err = failure(1, 4, &Reply::PeerFail { host: dead });
            assert!(
                matches!(err, Some(ClusterError::Protocol(_))),
                "{dead}: {err:?}"
            );
        }
        let err = failure(1, 4, &Reply::Err { msg: "boom".into() });
        assert!(matches!(err, Some(ClusterError::Protocol(m)) if m == "host 1: boom"));
        assert!(failure(1, 4, &Reply::Ok).is_none());
    }

    /// A hello names a host of the cluster and a peer address, and
    /// promises `DMB3`: one without a peer address, with one that is not
    /// a string, from a host past the cluster, or that is not a hello is
    /// a typed launch error, and so is a stale daemon's — one that
    /// promises nothing, `DMB1` (`bin` 1, an FNV-1a trailer) or `DMB2`
    /// (`bin` 2, an `mm` command).
    #[test]
    fn a_hello_names_its_host_and_its_peer() {
        let bin = Path::new("dmac-workerd");
        let hello = |host: usize, bin: Option<u64>| {
            let peer = "127.0.0.1:9".to_string();
            let hello = Reply::Hello {
                host,
                pid: 7,
                peer,
                bin,
            };
            String::from_utf8(hello.encode(None)).unwrap()
        };
        let good = hello(1, Some(binfmt::VERSION));
        let admitted = hello_of(good.as_bytes(), 2, bin).unwrap();
        assert_eq!(admitted, (1, "127.0.0.1:9".to_string()));
        for bad in [
            good.replace(r#","peer":"127.0.0.1:9""#, ""),
            good.replace(r#""127.0.0.1:9""#, "9"),
            hello(2, Some(binfmt::VERSION)),
            String::from_utf8(Reply::Ok.encode(Some(0))).unwrap(),
        ] {
            match hello_of(bad.as_bytes(), 2, bin) {
                Err(ClusterError::Protocol(m)) => assert!(m.contains("bad hello frame"), "{m}"),
                other => panic!("{bad}: {other:?}"),
            }
        }
        for stale in [None, Some(1), Some(2)] {
            match hello_of(hello(1, stale).as_bytes(), 2, bin) {
                Err(ClusterError::Protocol(m)) => assert!(m.contains("does not speak"), "{m}"),
                other => panic!("a stale hello ({stale:?}): {other:?}"),
            }
        }
    }
}
