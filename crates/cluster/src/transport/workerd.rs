//! The `dmac-workerd` worker daemon: one OS process per physical host of
//! a [`crate::transport::socket::SocketTransport`] cluster.
//!
//! A worker is deliberately dumb. It holds tile shards keyed by
//! `(rid, logical worker)`, executes the kernel commands the coordinator
//! dispatches — through the *same* functions as the in-process oracle
//! (the multiply fold and CPMM combine of [`dmac_matrix::exec`], the
//! cell-wise program of [`dmac_matrix::eval_fused_block`], the reduction
//! order of [`crate::kernels`]), so results are bit-identical by
//! construction — and proves its state on demand with canonical shard
//! checksums ([`crate::transport::wire::shard_checksum`]). All placement,
//! metering and conformance intelligence stays in the coordinator.
//!
//! ## Protocol
//!
//! Length-prefixed frames ([`crate::transport::frame`]). On connect the
//! worker binds a peer listen socket and sends
//! `{"t":"hello","host":H,"pid":P,"peer":"127.0.0.1:N","bin":1}`, then
//! answers each command frame with exactly one reply frame, in order.
//! Commands carry a per-connection sequence number `"q"` which every
//! reply echoes, so the coordinator's pipelined dispatch can discard
//! stale replies after an aborted stage. A stage's tiles are named once
//! per group: `mm` and `fused` tasks are `[{"w":w,"k":[bi,bj,…]}]`, one
//! group per logical worker (`cpmm2` keeps one `{"w","bi","bj","srcs"}`
//! task per tile, for its per-tile partial sources). A detached thread
//! writes `{"t":"hb","host":H}` every `heartbeat_ms` through the same
//! (mutex-shared) stream; the coordinator tolerates heartbeats
//! interleaved ahead of a reply. Errors are reported as
//! `{"t":"err","msg":…}` replies — the worker survives bad commands; it
//! exits when the coordinator closes the connection, sends `shutdown`,
//! or the stream desyncs.
//!
//! After membership the coordinator sends a `peers` command
//! distributing the peer address table. Control messages are JSON; bulk
//! payload (`install` bodies, `collect` replies, peer pushes, fused
//! scalar constants) travels as binary `DMB1` messages
//! ([`crate::transport::binfmt`]) on the same envelope, and nothing
//! else is accepted: a `push` without a `DMB1` tile section is an `err`
//! reply. So is an `install` without one, unless it names a generator:
//! `{"t":"install","rid","seed","m","rows","cols","block","tasks"}` makes
//! the worker generate the tiles `tasks` names (`[{"w","k":[bi,bj,…]}]`)
//! of `random` source `m` under `seed` itself, with
//! [`dmac_matrix::random_cell`] — the function the oracle made them with.
//!
//! ## Direct worker-to-worker exchange
//!
//! An `xfer` command is a routing plan, and the one way a tile moves:
//! its `groups` are `[{"wi","wo","dh"?,"k":[bi,bj,…]}]`, each the tiles
//! `k` of logical worker `wi`'s shard that become worker `wo`'s. For
//! every tile the worker reads the source and applies the transform. A
//! group that names no destination host (`dh`) stays and is installed
//! directly; the rest are pushed over cached TCP connections straight to
//! their hosts' peer listeners — one push per destination host, the
//! coordinator never touches the bytes. A push is acknowledged
//! (`{"t":"got"}`) only after the receiving side installed the tiles, and
//! the worker replies `xferred` (one source-byte receipt per group, in
//! group order, and per-edge frame stats for the pushes) only after every
//! push is acknowledged — so by the time the coordinator seals the
//! destination value, all installs have happened-before the seal. Local
//! installs and the encoding of every push happen under one store lock,
//! which is released while awaiting acks, so two workers pushing to each
//! other cannot deadlock. A dead peer surfaces as a `peerfail` reply
//! naming the host, which the coordinator folds into its normal
//! worker-loss path.

use std::collections::{BTreeMap, HashMap};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dmac_matrix::exec::{combine_partials, ResultBufferPool};
use dmac_matrix::{random_cell, Block, BlockedMatrix, DenseBlock};

use crate::cluster::ReduceKind;
use crate::dist::GridMeta;
use crate::json::{JsonArr, JsonObj};
use crate::jsonin::Json;
use crate::kernels::{self, MulStage};
use crate::transport::binfmt;
use crate::transport::frame::{
    framed_len, read_frame_bytes, write_frame, write_frame_bytes, MAX_FRAME,
};
use crate::transport::wire;
use crate::transport::TileTransform;

/// Launch parameters for a worker daemon (mirrors the CLI flags).
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator address to connect back to (`host:port`).
    pub connect: String,
    /// This worker's physical host id.
    pub host_id: usize,
    /// Heartbeat period in milliseconds.
    pub heartbeat_ms: u64,
}

/// Shard store: `(rid, logical worker)` → sorted tile map. `BTreeMap`
/// gives the deterministic `(bi, bj)` iteration order the reduction and
/// checksum contracts require. Shared with the peer listener threads,
/// which install pushed tiles between commands.
type Store = HashMap<(u64, usize), BTreeMap<(usize, usize), Block>>;

/// A tile with its place: logical worker, block row, block column.
type Placed = (usize, usize, usize, Block);

/// One reply, ready for the sequence number to be stamped in.
enum Reply {
    /// A JSON control reply.
    Json(JsonObj),
    /// A binary message: JSON header + bulk body.
    Bin(JsonObj, Vec<u8>),
}

impl Reply {
    fn ok() -> Reply {
        Reply::Json(JsonObj::new().str("t", "ok"))
    }
}

struct Worker {
    store: Arc<Mutex<Store>>,
    pool: ResultBufferPool,
    host: usize,
    /// Peer listener address per host id (`""` for self / unknown).
    peers: Vec<String>,
    /// Cached connections to peer listeners, by host id.
    peer_conns: HashMap<usize, TcpStream>,
    /// Read/write timeout on peer links — a wedged peer must surface as
    /// `peerfail`, not hang this worker past the coordinator's patience.
    peer_timeout: Duration,
}

/// Run the worker daemon until the coordinator disconnects. Returns an
/// error string suitable for an exit diagnostic.
pub fn run_worker(opts: &WorkerOptions) -> Result<(), String> {
    let store: Arc<Mutex<Store>> = Arc::new(Mutex::new(Store::new()));

    // Peer listener: other workers push tiles here during `xfer` stages.
    // Bound before the hello so the advertised address is live by the
    // time any coordinator-driven stage can reference it.
    let peer_listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind peer listener: {e}"))?;
    let peer_addr = peer_listener
        .local_addr()
        .map_err(|e| format!("peer local_addr: {e}"))?
        .to_string();
    {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for stream in peer_listener.incoming() {
                let Ok(stream) = stream else { return };
                let store = Arc::clone(&store);
                std::thread::spawn(move || peer_serve(stream, store));
            }
        });
    }

    let stream =
        TcpStream::connect(&opts.connect).map_err(|e| format!("connect {}: {e}", opts.connect))?;
    stream.set_nodelay(true).ok();
    let mut reader = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let writer = Arc::new(Mutex::new(stream));

    let hello = JsonObj::new()
        .str("t", "hello")
        .u64("host", opts.host_id as u64)
        .u64("pid", u64::from(std::process::id()))
        .str("peer", &peer_addr)
        .u64("bin", 1)
        .build();
    send(&writer, &hello)?;

    // Heartbeat thread: beats until the socket dies, even while the main
    // thread is deep in a kernel — liveness is about the process, not
    // about command latency.
    {
        let writer = Arc::clone(&writer);
        let period = Duration::from_millis(opts.heartbeat_ms.max(1));
        let hb = JsonObj::new()
            .str("t", "hb")
            .u64("host", opts.host_id as u64)
            .build();
        std::thread::spawn(move || loop {
            std::thread::sleep(period);
            let Ok(mut w) = writer.lock() else { return };
            if write_frame(&mut *w, &hb).is_err() {
                return;
            }
        });
    }

    let mut worker = Worker {
        store,
        pool: ResultBufferPool::new(4),
        host: opts.host_id,
        peers: Vec::new(),
        peer_conns: HashMap::new(),
        peer_timeout: Duration::from_millis(2000),
    };

    loop {
        let raw = match read_frame_bytes(&mut reader) {
            Ok(Some(b)) => b,
            Ok(None) => return Ok(()), // coordinator closed cleanly
            Err(e) => return Err(format!("read frame: {e}")),
        };
        let (cmd, body) = match parse_cmd(&raw) {
            Ok(parsed) => parsed,
            Err(msg) => {
                send_reply(&writer, None, Reply::Json(err_obj(&msg)))?;
                continue;
            }
        };
        let q = cmd.get("q").and_then(Json::as_u64);
        if cmd.get("t").and_then(Json::as_str) == Some("shutdown") {
            send_reply(&writer, q, Reply::Json(JsonObj::new().str("t", "bye")))?;
            return Ok(());
        }
        let reply = match worker.dispatch(&cmd, body) {
            Ok(r) => r,
            Err(msg) => Reply::Json(err_obj(&msg)),
        };
        send_reply(&writer, q, reply)?;
    }
}

/// Split a command frame into its JSON header and — exactly when the
/// frame is a `DMB1` message — its binary body.
fn parse_cmd(raw: &[u8]) -> Result<(Json, Option<&[u8]>), String> {
    if binfmt::is_binary(raw) {
        let (head, body) = binfmt::decode(raw)?;
        let cmd = Json::parse(head).map_err(|e| format!("unparseable binary header: {e}"))?;
        Ok((cmd, Some(body)))
    } else {
        let text = std::str::from_utf8(raw).map_err(|_| "command frame is not UTF-8")?;
        let cmd = Json::parse(text).map_err(|e| format!("unparseable command: {e}"))?;
        Ok((cmd, None))
    }
}

fn err_obj(msg: &str) -> JsonObj {
    JsonObj::new().str("t", "err").str("msg", msg)
}

fn send(writer: &Arc<Mutex<TcpStream>>, frame: &str) -> Result<(), String> {
    let mut w = writer.lock().map_err(|_| "writer poisoned".to_string())?;
    write_frame(&mut *w, frame).map_err(|e| format!("write frame: {e}"))
}

/// Stamp the echoed sequence number into a reply and ship it.
fn send_reply(writer: &Arc<Mutex<TcpStream>>, q: Option<u64>, reply: Reply) -> Result<(), String> {
    let stamp = |obj: JsonObj| match q {
        Some(q) => obj.u64("q", q),
        None => obj,
    };
    match reply {
        Reply::Json(obj) => send(writer, &stamp(obj).build()),
        Reply::Bin(obj, body) => {
            let msg = binfmt::encode(&stamp(obj).build(), &body);
            let mut w = writer.lock().map_err(|_| "writer poisoned".to_string())?;
            write_frame_bytes(&mut *w, &msg).map_err(|e| format!("write frame: {e}"))
        }
    }
}

/// Serve one inbound peer connection: each frame is a `push` carrying
/// tiles already in destination coordinates; install them and ack with
/// `{"t":"got"}` so the sender can prove completion to the coordinator.
fn peer_serve(mut stream: TcpStream, store: Arc<Mutex<Store>>) {
    stream.set_nodelay(true).ok();
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    loop {
        let raw = match read_frame_bytes(&mut reader) {
            Ok(Some(b)) => b,
            _ => return,
        };
        let reply = match install_push(&raw, &store) {
            Ok(()) => r#"{"t":"got"}"#.to_string(),
            Err(msg) => err_obj(&msg).build(),
        };
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// Decode one pushed `DMB1` tile batch and install it.
fn install_push(raw: &[u8], store: &Mutex<Store>) -> Result<(), String> {
    if !binfmt::is_binary(raw) {
        return Err("peer frame is not a DMB1 message".into());
    }
    let (head, body) = binfmt::decode(raw)?;
    let head = Json::parse(head).map_err(|e| format!("push header: {e}"))?;
    if head.get("t").and_then(Json::as_str) != Some("push") {
        return Err("peer frame is not a push".into());
    }
    let rid = wire::field_u64(&head, "rid")?;
    install_tiles(store, rid, binfmt::decode_tiles(body)?)
}

/// Install placed tiles under `rid`.
fn install_tiles(store: &Mutex<Store>, rid: u64, tiles: Vec<Placed>) -> Result<(), String> {
    let mut store = store.lock().map_err(|_| "store poisoned".to_string())?;
    for (w, bi, bj, block) in tiles {
        store.entry((rid, w)).or_default().insert((bi, bj), block);
    }
    Ok(())
}

/// `(w, bi, bj)` task triple from a task object.
fn task_triple(j: &Json) -> Result<(usize, usize, usize), String> {
    Ok((
        wire::field_usize(j, "w")?,
        wire::field_usize(j, "bi")?,
        wire::field_usize(j, "bj")?,
    ))
}

/// A group's tile keys: its `k` array, read as `bi, bj` pairs.
fn keys_of(group: &Json) -> Result<Vec<(usize, usize)>, String> {
    let k = wire::field_usize_arr(group, "k")?;
    if k.len() % 2 != 0 {
        return Err(format!(
            "a group's k holds {} numbers, not (bi, bj) pairs",
            k.len()
        ));
    }
    Ok(k.chunks_exact(2).map(|p| (p[0], p[1])).collect())
}

fn meta_of(cmd: &Json) -> Result<GridMeta, String> {
    Ok(GridMeta::new(
        wire::field_usize(cmd, "rows")?,
        wire::field_usize(cmd, "cols")?,
        wire::field_usize(cmd, "block")?,
    ))
}

/// The tiles of a bodiless `install`: those `tasks` name of the `random`
/// source `m` under `seed` (16 hex digits) on the `rows × cols` grid of
/// `block`, made by the generator the oracle uses. Everything the command
/// says is checked — the grid, every key inside it, the bytes it asks for
/// against the frame ceiling — before a cell is made.
fn generated(cmd: &Json) -> Result<Vec<Placed>, String> {
    let seed = cmd
        .get("seed")
        .and_then(Json::as_str)
        .and_then(wire::parse_hex_u64);
    let seed = seed.ok_or("install is neither a DMB1 message nor a generator (no 'seed')")?;
    let matrix = u32::try_from(wire::field_u64(cmd, "m")?)
        .map_err(|_| "generator's matrix id 'm' is not a u32".to_string())?;
    let meta = meta_of(cmd)?;
    if meta.block == 0 {
        return Err("generator grid has block size 0".into());
    }
    let (mut keys, mut bytes) = (Vec::new(), 0u64);
    for group in wire::field_arr(cmd, "tasks")? {
        let w = wire::field_usize(group, "w")?;
        for (bi, bj) in keys_of(group)? {
            if bi >= meta.row_blocks || bj >= meta.col_blocks {
                return Err(format!(
                    "generator key ({bi},{bj}) is outside the {}x{} grid",
                    meta.row_blocks, meta.col_blocks
                ));
            }
            let cells = (meta.block_rows_of(bi) as u64).checked_mul(meta.block_cols_of(bj) as u64);
            bytes = cells
                .and_then(|c| c.checked_mul(8))
                .and_then(|b| b.checked_add(bytes))
                .filter(|&b| b <= u64::from(MAX_FRAME))
                .ok_or_else(|| format!("generator asks for more than {MAX_FRAME} bytes"))?;
            keys.push((w, bi, bj));
        }
    }
    let (rows, cols, block) = (meta.rows, meta.cols, meta.block);
    let cell = |i, j| random_cell(seed, matrix, i, j);
    let tiles = keys.into_iter().map(|(w, bi, bj)| {
        let tile = BlockedMatrix::tile_from_fn(rows, cols, block, (bi, bj), cell);
        (w, bi, bj, tile)
    });
    Ok(tiles.collect())
}

fn tile_of(
    store: &Store,
    host: usize,
    rid: u64,
    w: usize,
    bi: usize,
    bj: usize,
) -> Result<&Block, String> {
    store
        .get(&(rid, w))
        .and_then(|s| s.get(&(bi, bj)))
        .ok_or_else(|| format!("missing tile rid={rid} w={w} ({bi},{bj}) on host {host}"))
}

/// Logical worker `w`'s multiply stage over its shards of `rid_a` and
/// `rid_b` (a shard never installed is the empty one).
fn mul_stage(
    store: &Store,
    rid_a: u64,
    rid_b: u64,
    w: usize,
    kb: usize,
) -> Result<MulStage<'_>, String> {
    let shard = |rid| {
        let held = store.get(&(rid, w)).into_iter().flatten();
        held.map(|(&k, t)| (k, t))
    };
    MulStage::new(shard(rid_a), shard(rid_b), kb).map_err(|e| format!("worker {w}: {e}"))
}

impl Worker {
    fn lock(&self) -> Result<std::sync::MutexGuard<'_, Store>, String> {
        self.store.lock().map_err(|_| "store poisoned".to_string())
    }

    fn dispatch(&mut self, cmd: &Json, body: Option<&[u8]>) -> Result<Reply, String> {
        match wire::field_str(cmd, "t")? {
            "peers" => self.peers(cmd),
            "install" => self.install(cmd, body),
            "collect" => self.collect(cmd),
            "seal" => self.seal(cmd),
            "mm" => self.mm(cmd),
            "fused" => self.fused(cmd, body),
            "cpmm1" => self.cpmm1(cmd),
            "cpmm2" => self.cpmm2(cmd),
            "reduce" => self.reduce(cmd),
            "free" => self.free(cmd),
            "xfer" => self.xfer(cmd),
            other => Err(format!("unknown command '{other}'")),
        }
    }

    /// Adopt the peer address table.
    fn peers(&mut self, cmd: &Json) -> Result<Reply, String> {
        self.peers = wire::field_arr(cmd, "peers")?
            .iter()
            .map(|p| p.as_str().unwrap_or("").to_string())
            .collect();
        self.peer_timeout = Duration::from_millis(wire::field_u64(cmd, "timeout_ms")?.max(1));
        self.peer_conns.clear();
        Ok(Reply::ok())
    }

    /// Install a bound input's tiles from a `DMB1` body, or — with no body
    /// — generate a `random` source's ([`generated`]).
    fn install(&mut self, cmd: &Json, body: Option<&[u8]>) -> Result<Reply, String> {
        let rid = wire::field_u64(cmd, "rid")?;
        let tiles = match body {
            Some(body) => binfmt::decode_tiles(body)?,
            None => generated(cmd)?,
        };
        install_tiles(&self.store, rid, tiles)?;
        Ok(Reply::ok())
    }

    /// Execute a routing plan. Under the store lock, read every group's
    /// source tiles — a missing one is an error before anything is
    /// installed — install the groups bound for this host, and encode the
    /// rest per destination host; then, with the lock released, push each
    /// batch to its host's peer listener and await the acks. Symmetric
    /// xfers between two hosts must not deadlock on each other's installs.
    fn xfer(&mut self, cmd: &Json) -> Result<Reply, String> {
        let rid_in = wire::field_u64(cmd, "rid_in")?;
        let rid_out = wire::field_u64(cmd, "rid_out")?;
        let tr = transform_of(cmd)?;
        let groups = wire::field_arr(cmd, "groups")?;
        // Per-group source-byte receipts, this host's tiles, and the other
        // hosts' tiles encoded per destination host.
        let mut bytes = JsonArr::new();
        let mut local = Vec::new();
        let mut pushes: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
        {
            let mut store = self.lock()?;
            for group in groups {
                let wi = wire::field_usize(group, "wi")?;
                let wo = wire::field_usize(group, "wo")?;
                // A group names a destination host (`dh`) only to leave
                // this one; naming this one is refused, not a second
                // spelling of staying.
                let dh = group
                    .get("dh")
                    .map(|_| wire::field_usize(group, "dh"))
                    .transpose()?;
                if dh == Some(self.host) {
                    return Err(format!("xfer group names its own host {} as dh", self.host));
                }
                let mut receipt = 0u64;
                for (bi, bj) in keys_of(group)? {
                    let src = tile_of(&store, self.host, rid_in, wi, bi, bj)?;
                    receipt += src.actual_bytes() as u64;
                    let (di, dj) = tr.dest_key(bi, bj);
                    let Some(dh) = dh else {
                        local.push((wo, (di, dj), tr.apply(src)));
                        continue;
                    };
                    let buf = pushes.entry(dh).or_insert_with(|| vec![0u8; 4]);
                    binfmt::push_tile(buf, wo, di, dj, &tr.apply(src));
                    let count = buf[..4].try_into().expect("a batch opens with its count");
                    let n = u32::from_le_bytes(count) + 1;
                    buf[..4].copy_from_slice(&n.to_le_bytes());
                }
                bytes = bytes.u64(receipt);
            }
            for (wo, at, tile) in local {
                store.entry((rid_out, wo)).or_default().insert(at, tile);
            }
        }
        // Lock released: push each destination's batch and await acks.
        let mut edges = JsonArr::new();
        let header = JsonObj::new().str("t", "push").u64("rid", rid_out).build();
        for (dh, body) in pushes {
            let payload = binfmt::encode(&header, &body);
            match self.push_to(dh, &payload) {
                Ok(ack_len) => {
                    edges = edges.raw(
                        &JsonObj::new()
                            .u64("h", dh as u64)
                            .u64("f", 2)
                            .u64("b", framed_len(payload.len()) + framed_len(ack_len))
                            .build(),
                    );
                }
                Err(_) => {
                    // The coordinator folds this into its worker-loss
                    // path; this worker stays healthy.
                    return Ok(Reply::Json(
                        JsonObj::new().str("t", "peerfail").u64("host", dh as u64),
                    ));
                }
            }
        }
        Ok(Reply::Json(
            JsonObj::new()
                .str("t", "xferred")
                .raw("bytes", &bytes.build())
                .raw("edges", &edges.build()),
        ))
    }

    /// Push one frame to a peer and await its ack; returns the ack's
    /// payload length for edge accounting. Any failure poisons the
    /// cached connection.
    fn push_to(&mut self, dh: usize, payload: &[u8]) -> Result<usize, String> {
        if !self.peer_conns.contains_key(&dh) {
            let addr = self
                .peers
                .get(dh)
                .filter(|a| !a.is_empty())
                .ok_or_else(|| format!("no peer address for host {dh}"))?;
            let conn = TcpStream::connect(addr).map_err(|e| format!("peer {dh}: {e}"))?;
            conn.set_nodelay(true).ok();
            conn.set_read_timeout(Some(self.peer_timeout)).ok();
            conn.set_write_timeout(Some(self.peer_timeout)).ok();
            self.peer_conns.insert(dh, conn);
        }
        let res = (|| -> Result<usize, String> {
            let conn = self.peer_conns.get_mut(&dh).expect("just inserted");
            write_frame_bytes(conn, payload).map_err(|e| format!("peer {dh} write: {e}"))?;
            let ack = read_frame_bytes(conn)
                .map_err(|e| format!("peer {dh} ack: {e}"))?
                .ok_or_else(|| format!("peer {dh} closed before ack"))?;
            let j = Json::parse(
                std::str::from_utf8(&ack).map_err(|_| format!("peer {dh} ack not UTF-8"))?,
            )
            .map_err(|e| format!("peer {dh} ack: {e}"))?;
            match j.get("t").and_then(Json::as_str) {
                Some("got") => Ok(ack.len()),
                Some("err") => Err(format!(
                    "peer {dh} rejected push: {}",
                    j.get("msg").and_then(Json::as_str).unwrap_or("unknown")
                )),
                other => Err(format!("peer {dh} ack has type {other:?}")),
            }
        })();
        if res.is_err() {
            self.peer_conns.remove(&dh);
        }
        res
    }

    fn collect(&self, cmd: &Json) -> Result<Reply, String> {
        let rid = wire::field_u64(cmd, "rid")?;
        let store = self.lock()?;
        let mut tiles = Vec::new();
        for item in wire::field_arr(cmd, "items")? {
            let (w, bi, bj) = task_triple(item)?;
            tiles.push((w, bi, bj, tile_of(&store, self.host, rid, w, bi, bj)?));
        }
        let body = binfmt::encode_tiles(tiles);
        Ok(Reply::Bin(JsonObj::new().str("t", "tiles"), body))
    }

    fn seal(&self, cmd: &Json) -> Result<Reply, String> {
        let rid = wire::field_u64(cmd, "rid")?;
        let store = self.lock()?;
        let mut shards = JsonArr::new();
        for w in wire::field_usize_arr(cmd, "ws")? {
            let (n, sum) = match store.get(&(rid, w)) {
                Some(s) => (
                    s.len(),
                    wire::shard_checksum(s.iter().map(|(&k, t)| (k, t))),
                ),
                // A worker that owns nothing of this value legitimately
                // reports the empty shard.
                None => (0, wire::shard_checksum(std::iter::empty())),
            };
            shards = shards.raw(
                &JsonObj::new()
                    .u64("w", w as u64)
                    .u64("n", n as u64)
                    .str("x", &wire::hex_u64(sum))
                    .build(),
            );
        }
        Ok(Reply::Json(
            JsonObj::new()
                .str("t", "sealed")
                .raw("shards", &shards.build()),
        ))
    }

    fn mm(&mut self, cmd: &Json) -> Result<Reply, String> {
        let rid_a = wire::field_u64(cmd, "rid_a")?;
        let rid_b = wire::field_u64(cmd, "rid_b")?;
        let rid_out = wire::field_u64(cmd, "rid_out")?;
        let kb = wire::field_usize(cmd, "kb")?;
        let meta = meta_of(cmd)?;
        let mut store = self.lock()?;
        // A host's tasks come grouped by logical worker: one stage each.
        // The results wait for the last stage to let go of the store.
        let mut tiles = Vec::new();
        for group in wire::field_arr(cmd, "tasks")? {
            let w = wire::field_usize(group, "w")?;
            let keys = keys_of(group)?;
            let stage = mul_stage(&store, rid_a, rid_b, w, kb)?;
            for (bi, bj) in keys {
                let shape = (meta.block_rows_of(bi), meta.block_cols_of(bj));
                let tile = stage
                    .product(&self.pool, shape, (bi, bj))
                    .map_err(|e| format!("mm: result ({bi},{bj}) on worker {w}: {e}"))?;
                tiles.push((w, (bi, bj), tile));
            }
        }
        for (w, at, tile) in tiles {
            store.entry((rid_out, w)).or_default().insert(at, tile);
        }
        Ok(Reply::ok())
    }

    fn fused(&mut self, cmd: &Json, body: Option<&[u8]>) -> Result<Reply, String> {
        let rids = wire::field_usize_arr(cmd, "rids")?;
        let rid_out = wire::field_u64(cmd, "rid_out")?;
        // Scalar constants arrive as a raw f64 body section the program
        // references by slot index; a program without any has no body.
        let consts = body
            .map(binfmt::decode_f64s)
            .transpose()?
            .unwrap_or_default();
        let prog = wire::decode_prog_indexed(wire::field_arr(cmd, "prog")?, &consts)?;
        let mut store = self.lock()?;
        for group in wire::field_arr(cmd, "tasks")? {
            let w = wire::field_usize(group, "w")?;
            for (bi, bj) in keys_of(group)? {
                let mut tiles: Vec<&Block> = Vec::with_capacity(rids.len());
                for &rid in &rids {
                    tiles.push(tile_of(&store, self.host, rid as u64, w, bi, bj)?);
                }
                let out = dmac_matrix::eval_fused_block(&prog, &tiles, &self.pool)
                    .map_err(|e| e.to_string())?;
                store.entry((rid_out, w)).or_default().insert((bi, bj), out);
            }
        }
        Ok(Reply::ok())
    }

    fn cpmm1(&mut self, cmd: &Json) -> Result<Reply, String> {
        let rid_a = wire::field_u64(cmd, "rid_a")?;
        let rid_b = wire::field_u64(cmd, "rid_b")?;
        let stage_rid = wire::field_u64(cmd, "stage")?;
        let n = wire::field_usize(cmd, "n")?;
        let kb = wire::field_usize(cmd, "kb")?;
        let meta = meta_of(cmd)?;
        let mut store = self.lock()?;
        let mut descs = JsonArr::new();
        let mut partials = Vec::new();
        for w in wire::field_usize_arr(cmd, "ws")? {
            let stage = mul_stage(&store, rid_a, rid_b, w, kb)?;
            // No k-slice, no partial — and no shard to hold the grid against.
            if w >= kb {
                continue;
            }
            // Column × Row shards span the result grid, so a described grid
            // that is not theirs never bounds the loops below.
            let (row_blocks, col_blocks) = stage.out_grid();
            if (row_blocks, col_blocks) != (meta.row_blocks, meta.col_blocks) {
                return Err(format!(
                    "cpmm: worker {w}'s shards span {row_blocks}x{col_blocks} result blocks, \
                     the command describes {}x{}",
                    meta.row_blocks, meta.col_blocks
                ));
            }
            for bi in 0..row_blocks {
                for bj in 0..col_blocks {
                    let shape = (meta.block_rows_of(bi), meta.block_cols_of(bj));
                    let partial = stage
                        .partial(&self.pool, shape, (bi, bj), (w, n))
                        .map_err(|e| format!("cpmm: partial ({bi},{bj}) on worker {w}: {e}"))?;
                    if let Some(acc) = partial {
                        descs = descs.raw(
                            &JsonObj::new()
                                .u64("w", w as u64)
                                .u64("bi", bi as u64)
                                .u64("bj", bj as u64)
                                .u64("b", acc.actual_bytes() as u64)
                                .build(),
                        );
                        partials.push((w, (bi, bj), Block::Dense(acc)));
                    }
                }
            }
        }
        for (w, at, partial) in partials {
            store.entry((stage_rid, w)).or_default().insert(at, partial);
        }
        Ok(Reply::Json(
            JsonObj::new()
                .str("t", "partials")
                .raw("descs", &descs.build()),
        ))
    }

    fn cpmm2(&mut self, cmd: &Json) -> Result<Reply, String> {
        let stage = wire::field_u64(cmd, "stage")?;
        let rid_out = wire::field_u64(cmd, "rid_out")?;
        let meta = meta_of(cmd)?;
        let mut store = self.lock()?;
        for task in wire::field_arr(cmd, "tasks")? {
            let (w, bi, bj) = task_triple(task)?;
            let mut partials: Vec<&DenseBlock> = Vec::new();
            for src in wire::field_usize_arr(task, "srcs")? {
                match tile_of(&store, self.host, stage, src, bi, bj)? {
                    Block::Dense(d) => partials.push(d),
                    Block::Sparse(_) => return Err("cpmm partial is not dense".to_string()),
                }
            }
            let shape = (meta.block_rows_of(bi), meta.block_cols_of(bj));
            let tile = combine_partials(shape, partials).map_err(|e| e.to_string())?;
            store
                .entry((rid_out, w))
                .or_default()
                .insert((bi, bj), tile);
        }
        Ok(Reply::ok())
    }

    fn reduce(&self, cmd: &Json) -> Result<Reply, String> {
        let rid = wire::field_u64(cmd, "rid")?;
        let kind = match wire::field_str(cmd, "kind")? {
            "sum" => ReduceKind::Sum,
            "norm2" => ReduceKind::Norm2,
            other => return Err(format!("unknown reduce kind '{other}'")),
        };
        let store = self.lock()?;
        let mut parts = JsonArr::new();
        for w in wire::field_usize_arr(cmd, "ws")? {
            let partial = match store.get(&(rid, w)) {
                Some(s) => kernels::reduce_shard(kind, s.values()),
                None => 0.0,
            };
            parts = parts.raw(
                &JsonObj::new()
                    .u64("w", w as u64)
                    .str("x", &wire::hex_f64(partial))
                    .build(),
            );
        }
        Ok(Reply::Json(
            JsonObj::new()
                .str("t", "reduced")
                .raw("parts", &parts.build()),
        ))
    }

    fn free(&mut self, cmd: &Json) -> Result<Reply, String> {
        let rid = wire::field_u64(cmd, "rid")?;
        self.lock()?.retain(|&(r, _), _| r != rid);
        Ok(Reply::ok())
    }
}

fn transform_of(cmd: &Json) -> Result<TileTransform, String> {
    match wire::field_str(cmd, "tr")? {
        "none" => Ok(TileTransform::None),
        "transpose" => Ok(TileTransform::Transpose),
        other => Err(format!("unknown transform '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistMatrix;

    fn worker() -> Worker {
        Worker {
            store: Arc::default(),
            pool: ResultBufferPool::new(1),
            host: 0,
            peers: Vec::new(),
            peer_conns: HashMap::new(),
            peer_timeout: Duration::from_millis(100),
        }
    }

    /// Seed one host's store with every logical worker's shard of `m`.
    fn install(w: &Worker, m: &DistMatrix) {
        let mut store = w.store.lock().unwrap();
        for lw in 0..m.workers() {
            let shard = m.worker_blocks(lw).iter();
            let shard = shard.map(|(&k, t)| (k, (**t).clone())).collect();
            store.insert((m.rid(), lw), shard);
        }
    }

    /// Worker `w`'s tiles of `out`, in key order.
    fn keys(out: &DistMatrix, w: usize) -> Vec<(usize, usize)> {
        let mut keys: Vec<_> = out.worker_blocks(w).keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// `[{"w","k":[bi,bj,…]}…]`: every tile of `out`, one group per worker.
    fn groups_of(out: &DistMatrix) -> String {
        let mut tasks = JsonArr::new();
        for w in 0..out.workers() {
            let k = keys(out, w).into_iter().flat_map(|(bi, bj)| [bi, bj]);
            let k = k.fold(JsonArr::new(), |k, x| k.u64(x as u64)).build();
            tasks = tasks.raw(&JsonObj::new().u64("w", w as u64).raw("k", &k).build());
        }
        tasks.build()
    }

    /// `[{"w","bi","bj","srcs"}…]`: every tile of `out`, one task each.
    fn tasks_of(out: &DistMatrix, srcs: impl Fn(usize, usize) -> String) -> String {
        let mut tasks = JsonArr::new();
        for w in 0..out.workers() {
            for (bi, bj) in keys(out, w) {
                let task = JsonObj::new()
                    .u64("w", w as u64)
                    .u64("bi", bi as u64)
                    .u64("bj", bj as u64)
                    .raw("srcs", &srcs(bi, bj));
                tasks = tasks.raw(&task.build());
            }
        }
        tasks.build()
    }

    fn grid(head: JsonObj, out: &DistMatrix) -> JsonObj {
        head.u64("rows", out.rows() as u64)
            .u64("cols", out.cols() as u64)
            .u64("block", out.block_size() as u64)
    }

    /// Every shard the worker holds of `out` seals to the checksum the
    /// simulator's shard does.
    fn assert_same_seals(w: &Worker, out: &DistMatrix, what: &str) {
        let store = w.store.lock().unwrap();
        for lw in 0..out.workers() {
            let oracle = out.worker_blocks(lw).iter().map(|(&k, t)| (k, &**t));
            let held = store.get(&(out.rid(), lw));
            let held = held.into_iter().flatten().map(|(&k, t)| (k, t));
            assert_eq!(
                wire::shard_checksum(held),
                wire::shard_checksum(oracle),
                "{what}: shard of worker {lw}"
            );
        }
    }

    /// One host holding both logical workers' operands of one product,
    /// placed both ways — Broadcast × Column for `mm`, Column × Row for
    /// `cpmm1` — with each command as the coordinator words it and the
    /// simulator's result: dense and CSC result tiles, ragged edges, a
    /// k-panel of all-zero tiles.
    struct Staged {
        w: Worker,
        mm: String,
        mm_out: DistMatrix,
        cpmm1: String,
        cpmm_out: DistMatrix,
        /// CPMM's staging rid: no rid the fixture minted.
        stage: u64,
    }

    fn staged() -> Staged {
        use crate::{Cluster, ClusterConfig, PartitionScheme};
        let mut cl = Cluster::new(ClusterConfig {
            workers: 2,
            local_threads: 1,
            ..ClusterConfig::default()
        });
        let a = dmac_matrix::BlockedMatrix::from_fn(7, 10, 3, |i, j| {
            // Block-column 1 is all zero; row 0 is sparse.
            if (3..6).contains(&j) || (i == 0 && j > 0) {
                0.0
            } else {
                ((i * 5 + j * 3) % 7) as f64 - 2.0
            }
        })
        .unwrap();
        let b = dmac_matrix::BlockedMatrix::from_fn(10, 8, 3, |i, j| {
            if j >= 6 && i != 9 {
                0.0
            } else {
                ((i * 2 + j) % 5) as f64 / 4.0
            }
        })
        .unwrap();
        let kb = 4u64;
        let w = worker();

        let (a_bc, b_col) = (
            cl.load(&a, PartitionScheme::Broadcast),
            cl.load(&b, PartitionScheme::Col),
        );
        let mm_out = cl.rmm1(&a_bc, &b_col).unwrap();
        install(&w, &a_bc);
        install(&w, &b_col);
        let mm = grid(JsonObj::new().str("t", "mm"), &mm_out)
            .u64("rid_a", a_bc.rid())
            .u64("rid_b", b_col.rid())
            .u64("rid_out", mm_out.rid())
            .u64("kb", kb)
            .raw("tasks", &groups_of(&mm_out));

        let (a_col, b_row) = (
            cl.load(&a, PartitionScheme::Col),
            cl.load(&b, PartitionScheme::Row),
        );
        let cpmm_out = cl.cpmm(&a_col, &b_row, PartitionScheme::Row).unwrap();
        install(&w, &a_col);
        install(&w, &b_row);
        let stage = 1 << 40;
        let cpmm1 = grid(JsonObj::new().str("t", "cpmm1"), &cpmm_out)
            .u64("rid_a", a_col.rid())
            .u64("rid_b", b_row.rid())
            .u64("stage", stage)
            .u64("n", 2)
            .u64("kb", kb)
            .raw("ws", "[0,1]");
        Staged {
            w,
            mm: mm.build(),
            mm_out,
            cpmm1: cpmm1.build(),
            cpmm_out,
            stage,
        }
    }

    fn run(w: &mut Worker, cmd: &str) -> Result<Reply, String> {
        w.dispatch(&Json::parse(cmd).unwrap(), None)
    }

    /// The by-construction property, checked without launching a process:
    /// the daemon's `mm` and `cpmm1` + `cpmm2` over a hand-built store
    /// produce tiles whose shard checksums equal the simulator's for the
    /// same inputs.
    #[test]
    fn mm_and_cpmm_seal_like_the_simulator() {
        let Staged {
            mut w,
            mm,
            mm_out,
            cpmm1,
            cpmm_out: out,
            stage,
        } = staged();
        run(&mut w, &mm).map(drop).unwrap();
        assert_same_seals(&w, &mm_out, "mm");
        assert!(
            (0..2).any(|lw| mm_out.worker_blocks(lw).values().any(|t| t.is_sparse()))
                && (0..2).any(|lw| mm_out.worker_blocks(lw).values().any(|t| !t.is_sparse())),
            "the inputs must exercise both result representations"
        );

        let Ok(Reply::Json(partials)) = run(&mut w, &cpmm1) else {
            panic!("cpmm1 must answer with its partial descriptors");
        };
        let partials = Json::parse(&partials.build()).unwrap();
        let descs = wire::field_arr(&partials, "descs").unwrap();
        assert!(!descs.is_empty());
        // Both logical workers share this host, so no partial has to move.
        let srcs_of = |bi: usize, bj: usize| {
            let mut srcs = JsonArr::new();
            for d in descs {
                let (src, dbi, dbj) = task_triple(d).unwrap();
                if (dbi, dbj) == (bi, bj) {
                    srcs = srcs.u64(src as u64);
                }
            }
            srcs.build()
        };
        let cpmm2 = grid(JsonObj::new().str("t", "cpmm2"), &out)
            .u64("stage", stage)
            .u64("rid_out", out.rid())
            .raw("tasks", &tasks_of(&out, srcs_of));
        run(&mut w, &cpmm2.build()).map(drop).unwrap();
        assert_same_seals(&w, &out, "cpmm");
    }

    /// `mm` and `cpmm1` hold what they are told against the shards they
    /// hold: a command those contradict — or one sized to exhaust memory —
    /// is an `err` reply naming the result tile and the logical worker.
    /// Nothing panics, nothing is allocated by a command's word alone,
    /// nothing is stored, and the worker computes the true command after.
    #[test]
    fn mm_and_cpmm1_hold_their_commands_against_their_shards() {
        let Staged {
            mut w,
            mm,
            mm_out,
            cpmm1,
            stage,
            ..
        } = staged();
        let shards_held = w.store.lock().unwrap().len();
        let rejected = |w: &mut Worker, cmd: &str, names: &[&str]| {
            let err = run(w, cmd)
                .err()
                .unwrap_or_else(|| panic!("accepted: {cmd}"));
            for name in names {
                assert!(err.contains(name), "'{err}' does not say '{name}': {cmd}");
            }
            assert_eq!(w.store.lock().unwrap().len(), shards_held, "{cmd}");
        };
        // The largest integer a command can carry (`Json::as_u64`).
        let huge = "9007199254740992";

        // The shared dimension: shorter than the shards, none, longer.
        for (cmd, op) in [(&mm, "mm"), (&cpmm1, "cpmm")] {
            rejected(&mut w, &cmd.replace(r#""kb":4"#, r#""kb":3"#), &["worker "]);
            rejected(&mut w, &cmd.replace(r#""kb":4"#, r#""kb":0"#), &[]);
            let long = cmd.replace(r#""kb":4"#, &format!(r#""kb":{huge}"#));
            rejected(
                &mut w,
                &long,
                &[op, "on worker ", "missing input tile at k=4"],
            );
        }
        // The grid: a block size, or an extent, the tiles do not have.
        for (cmd, op) in [(&mm, "mm"), (&cpmm1, "cpmm")] {
            for (field, was) in [("block", 3), ("rows", 7), ("cols", 8)] {
                let was = format!(r#""{field}":{was}"#);
                for now in ["0", "1", "2", "1099511627776", huge] {
                    let cmd = cmd.replace(&was, &format!(r#""{field}":{now}"#));
                    rejected(&mut w, &cmd, &[op, "worker "]);
                }
            }
        }
        // A result tile, a logical worker, an operand the host does not hold.
        let first = r#"{"w":0,"k":[0,0,"#;
        assert!(mm.contains(first));
        for task in [
            r#"{"w":0,"k":[3,0,"#.to_string(),
            format!(r#"{{"w":0,"k":[{huge},{huge},"#),
            format!(r#"{{"w":{huge},"k":[0,0,"#),
        ] {
            let names = ["mm: result (", "on worker ", "missing input tile at k=0"];
            rejected(&mut w, &mm.replace(first, &task), &names);
        }
        let rid_a = wire::field_u64(&Json::parse(&mm).unwrap(), "rid_a").unwrap();
        let unheld = mm.replace(&format!(r#""rid_a":{rid_a}"#), r#""rid_a":99999"#);
        rejected(&mut w, &unheld, &["mm: result (", "on worker "]);
        // A stride of none is every worker's own stride of one.
        let stride = cpmm1.replace(r#""n":2"#, r#""n":0"#);
        rejected(&mut w, &stride, &["cpmm: partial (", "on worker 0"]);

        // One byte of either command changed, 600 times: an answer or an
        // `err`, and whichever it was the worker is as it was — bar a
        // result it was asked, in so many words, to store elsewhere.
        let mut rng = dmac_matrix::SplitMix64::new(0xF4A3_0008);
        for round in 0..600 {
            let mut bytes = [&mm, &cpmm1][round % 2].clone().into_bytes();
            let at = rng.below(bytes.len());
            bytes[at] = 0x20 + rng.below(0x5f) as u8;
            let text = String::from_utf8(bytes).unwrap();
            if let Ok(cmd) = Json::parse(&text) {
                let _ = w.dispatch(&cmd, None);
            }
        }
        w.store
            .lock()
            .unwrap()
            .retain(|&(rid, _), _| rid != mm_out.rid() && rid != stage);
        run(&mut w, &mm).map(drop).unwrap();
        assert_same_seals(&w, &mm_out, "mm after the sweep");
    }

    /// Tile payload is `DMB1` or nothing: an `install` or peer `push`
    /// carrying hex-JSON tiles (the retired wire format) comes back as a
    /// typed error — never a panic, never a silent zero-tile install.
    #[test]
    fn json_bodied_install_and_push_are_typed_errors() {
        let mut w = worker();
        let tile = r#"{"w":0,"bi":0,"bj":0,"k":"d","r":1,"c":1,"d":"3ff0000000000000"}"#;
        let install = format!(r#"{{"t":"install","rid":7,"tiles":[{tile}]}}"#);
        let err = w
            .dispatch(&Json::parse(&install).unwrap(), None)
            .err()
            .expect("JSON-bodied install must be rejected");
        assert!(err.contains("DMB1"), "{err}");
        let push = format!(r#"{{"t":"push","rid":7,"tiles":[{tile}]}}"#);
        let err = install_push(push.as_bytes(), &w.store).unwrap_err();
        assert!(err.contains("DMB1"), "{err}");
        assert!(w.store.lock().unwrap().is_empty(), "nothing was installed");

        // The same tile as a DMB1 section installs through both doors.
        let block = Block::Dense(DenseBlock::from_vec(1, 1, vec![1.0]).unwrap());
        let body = binfmt::encode_tiles([(0, 0, 0, &block)]);
        let install = Json::parse(r#"{"t":"install","rid":7}"#).unwrap();
        assert!(w.dispatch(&install, Some(&body)).is_ok());
        let push = binfmt::encode(r#"{"t":"push","rid":8}"#, &body);
        install_push(&push, &w.store).unwrap();
        assert_eq!(w.store.lock().unwrap().len(), 2);
    }

    /// A bodiless `install` makes a `random` source's tiles with the
    /// oracle's generator: on a 37 × 50 grid at block 16, ragged both ways,
    /// Hash-placed over two workers, every tile is `bits_eq` to the one
    /// `BlockedMatrix::from_fn` made, and every shard seals alike.
    #[test]
    fn generated_tiles_are_the_oracles() {
        use crate::PartitionScheme;
        let (seed, matrix) = (0xDEAD_BEEF_F00D_CAFE, 3);
        let cell = |i, j| random_cell(seed, matrix, i, j);
        let m = BlockedMatrix::from_fn(37, 50, 16, cell).unwrap();
        let oracle = DistMatrix::from_blocked(&m, PartitionScheme::Hash, 2);
        let head = JsonObj::new().str("t", "install").u64("rid", oracle.rid());
        let head = head
            .str("seed", &wire::hex_u64(seed))
            .u64("m", matrix.into());
        let cmd = grid(head, &oracle)
            .raw("tasks", &groups_of(&oracle))
            .build();
        let mut w = worker();
        run(&mut w, &cmd).map(drop).unwrap();
        assert_same_seals(&w, &oracle, "generated");
        let store = w.store.lock().unwrap();
        for lw in 0..2 {
            let held = &store[&(oracle.rid(), lw)];
            assert_eq!(held.len(), oracle.worker_blocks(lw).len());
            for (k, tile) in oracle.worker_blocks(lw) {
                assert!(held[k].bits_eq(tile), "worker {lw} tile {k:?}");
            }
        }
        let ragged = store.values().flat_map(|s| s.values());
        assert!(ragged.clone().any(|t| t.rows() == 5) && ragged.clone().any(|t| t.cols() == 2));
    }

    /// What a generating `install` says is held to the grid it names
    /// before a cell is made: a zero block, a key outside the grid, a tile
    /// past the frame ceiling (`rows`, `cols` and `block` near `u32::MAX`),
    /// no seed or a seed not in hex, a matrix id past `u32` — each is a
    /// typed `err` that installs nothing. The true command installs after.
    #[test]
    fn a_generator_the_grid_contradicts_installs_nothing() {
        let good = r#"{"t":"install","rid":7,"seed":"00000000000000ff","m":3,"rows":37,"cols":50,"block":16,"tasks":[{"w":0,"k":[2,3]}]}"#;
        let max = u32::MAX;
        let huge = format!(r#""rows":{max},"cols":{max},"block":{max}"#);
        let mut w = worker();
        for (cmd, says) in [
            (
                good.replace(r#""block":16"#, r#""block":0"#),
                "block size 0",
            ),
            (
                good.replace("[2,3]", "[3,0]"),
                "(3,0) is outside the 3x4 grid",
            ),
            (
                good.replace("[2,3]", "[0,4]"),
                "(0,4) is outside the 3x4 grid",
            ),
            (good.replace("[2,3]", "[2,3,1]"), "not (bi, bj) pairs"),
            (
                good.replace(r#""rows":37,"cols":50,"block":16"#, &huge)
                    .replace("[2,3]", "[0,0]"),
                "more than",
            ),
            (
                good.replace(r#""seed":"00000000000000ff","#, ""),
                "no 'seed'",
            ),
            (good.replace("00000000000000ff", "ff"), "no 'seed'"),
            (good.replace(r#""m":3"#, r#""m":4294967296"#), "not a u32"),
            (good.replace(r#""rows":37,"#, ""), "missing integer 'rows'"),
        ] {
            let err = run(&mut w, &cmd)
                .err()
                .unwrap_or_else(|| panic!("accepted: {cmd}"));
            assert!(err.contains(says), "'{err}' does not say '{says}': {cmd}");
            assert!(w.store.lock().unwrap().is_empty(), "{cmd}");
        }
        // One byte of it changed, 600 times: an answer or an `err`.
        let mut rng = dmac_matrix::SplitMix64::new(0xF4A3_0030);
        for _ in 0..600 {
            let mut bytes = good.as_bytes().to_vec();
            bytes[rng.below(good.len())] = 0x20 + rng.below(0x5f) as u8;
            if let Ok(cmd) = Json::parse(&String::from_utf8(bytes).unwrap()) {
                let _ = w.dispatch(&cmd, None);
            }
        }
        w.store.lock().unwrap().clear();
        run(&mut w, good).map(drop).unwrap();
        let store = w.store.lock().unwrap();
        let tile = &store[&(7, 0)][&(2, 3)];
        assert_eq!((tile.rows(), tile.cols()), (5, 2));
    }

    /// A worker (host 0) holding two tiles of rid 1 on logical worker 0:
    /// `(0,0)` is 1×1, `(0,1)` is 2×3 — different sizes, so receipts show
    /// their order.
    fn holder() -> Worker {
        let w = worker();
        let small = Block::Dense(DenseBlock::from_vec(1, 1, vec![1.0]).unwrap());
        let wide = Block::Dense(DenseBlock::from_fn(2, 3, |i, j| (i * 3 + j) as f64));
        let shard = BTreeMap::from([((0, 0), small), ((0, 1), wide)]);
        w.store.lock().unwrap().insert((1, 0), shard);
        w
    }

    /// One group of an `xfer` plan: `(wi, wo, dh, keys)`; `None` names no
    /// destination host: the group stays.
    type G<'k> = (usize, usize, Option<usize>, &'k [(usize, usize)]);

    /// An `xfer` of rid 1 → rid 2 transposing, with these groups.
    fn xfer_of(groups: &[G]) -> String {
        let mut arr = JsonArr::new();
        for &(wi, wo, dh, keys) in groups {
            let group = JsonObj::new().u64("wi", wi as u64).u64("wo", wo as u64);
            let group = match dh {
                Some(dh) => group.u64("dh", dh as u64),
                None => group,
            };
            let k = keys.iter().flat_map(|&(bi, bj)| [bi, bj]);
            let k = k.fold(JsonArr::new(), |k, x| k.u64(x as u64));
            arr = arr.raw(&group.raw("k", &k.build()).build());
        }
        let cmd = JsonObj::new()
            .str("t", "xfer")
            .u64("rid_in", 1)
            .u64("rid_out", 2);
        cmd.str("tr", "transpose")
            .raw("groups", &arr.build())
            .build()
    }

    /// The `xferred` reply's per-group receipts and per-edge hosts.
    fn xferred(reply: Reply) -> (Vec<u64>, Vec<u64>) {
        let Reply::Json(obj) = reply else {
            panic!("xferred is a JSON reply")
        };
        let j = Json::parse(&obj.build()).unwrap();
        assert_eq!(wire::field_str(&j, "t"), Ok("xferred"));
        let bytes = wire::field_arr(&j, "bytes").unwrap().iter();
        let edges = wire::field_arr(&j, "edges").unwrap().iter();
        (
            bytes.map(|b| b.as_u64().unwrap()).collect(),
            edges.map(|e| wire::field_u64(e, "h").unwrap()).collect(),
        )
    }

    /// What `store` holds of rid 2: `(worker, key)` → the tile's bits.
    fn landed(store: &Mutex<Store>) -> BTreeMap<(usize, (usize, usize)), Vec<u64>> {
        let store = store.lock().unwrap();
        let shards = store.iter().filter(|((rid, _), _)| *rid == 2);
        let tiles = shards.flat_map(|(&(_, w), s)| s.iter().map(move |(&k, t)| ((w, k), t)));
        let bits = |t: &Block| t.to_dense().data().iter().map(|x| x.to_bits()).collect();
        tiles.map(|(at, t)| (at, bits(t))).collect()
    }

    /// A routing plan whose groups all stay on this host is installed on
    /// the spot, transformed, with receipts in group order, no edges, and
    /// no peer connection opened. A group naming this host as `dh` is
    /// refused: staying has one spelling.
    #[test]
    fn xfer_installs_the_groups_bound_for_its_own_host() {
        let mut w = holder();
        let (small, wide) = (8, 48);
        let err = run(&mut w, &xfer_of(&[(0, 1, Some(0), &[(0, 1)])]))
            .err()
            .unwrap();
        assert!(err.contains("names its own host 0"), "{err}");
        let plan = xfer_of(&[(0, 1, None, &[(0, 1)]), (0, 0, None, &[(0, 0)])]);
        let reply = run(&mut w, &plan).unwrap();
        assert_eq!(xferred(reply), (vec![wide, small], vec![]));
        let got = landed(&w.store);
        let want = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.keys().collect::<Vec<_>>(), [&(0, (0, 0)), &(1, (1, 0))]);
        assert_eq!(got[&(1, (1, 0))], want(&[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]));
        assert!(w.peer_conns.is_empty(), "nothing was pushed");
    }

    /// A mixed plan: the local group lands here, the other is pushed to
    /// host 1's peer listener, which installs it before acking — and the
    /// one edge is host 1's.
    #[test]
    fn xfer_installs_local_groups_and_pushes_the_rest() {
        let mut w = holder();
        let peer: Arc<Mutex<Store>> = Arc::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        w.peers = vec![String::new(), listener.local_addr().unwrap().to_string()];
        let store = Arc::clone(&peer);
        std::thread::spawn(move || peer_serve(listener.accept().unwrap().0, store));

        let plan = xfer_of(&[(0, 0, Some(1), &[(0, 0)]), (0, 1, None, &[(0, 1)])]);
        let reply = run(&mut w, &plan).unwrap();
        assert_eq!(xferred(reply), (vec![8, 48], vec![1]));
        let here: Vec<_> = landed(&w.store).into_keys().collect();
        let there: Vec<_> = landed(&peer).into_keys().collect();
        assert_eq!((here, there), (vec![(1, (1, 0))], vec![(0, (0, 0))]));
    }

    /// A group naming a tile the host does not hold is an `err` reply,
    /// and nothing of the plan — local or remote — moved.
    #[test]
    fn xfer_of_a_missing_tile_is_an_error_that_installs_nothing() {
        let mut w = holder();
        let plan = xfer_of(&[
            (0, 0, None, &[(0, 0)]),
            (0, 1, Some(1), &[(0, 1)]),
            (0, 0, None, &[(1, 1)]),
        ]);
        let err = run(&mut w, &plan).err().expect("a missing tile is refused");
        assert!(err.contains("missing tile rid=1 w=0 (1,1)"), "{err}");
        assert!(landed(&w.store).is_empty());
        assert!(w.peer_conns.is_empty());
    }

    /// A group whose `k` is not `bi, bj` pairs, one naming this host as
    /// `dh`, one with no `k` at all: each is an `err` reply, and the good
    /// group before it in the plan installed nothing.
    #[test]
    fn xfer_of_a_malformed_group_is_an_error_that_installs_nothing() {
        let mut w = holder();
        let good = r#"{"wi":0,"wo":1,"k":[0,1]}"#;
        for (bad, says) in [
            (r#"{"wi":0,"wo":0,"k":[0,0,1]}"#, "not (bi, bj) pairs"),
            (
                r#"{"wi":0,"wo":0,"dh":0,"k":[0,0]}"#,
                "names its own host 0",
            ),
            (r#"{"wi":0,"wo":0}"#, "missing array 'k'"),
        ] {
            let plan = format!(
                r#"{{"t":"xfer","rid_in":1,"rid_out":2,"tr":"none","groups":[{good},{bad}]}}"#
            );
            let err = run(&mut w, &plan)
                .err()
                .expect("a malformed group is refused");
            assert!(err.contains(says), "{bad}: {err}");
            assert!(landed(&w.store).is_empty(), "{bad}");
            assert!(w.peer_conns.is_empty(), "{bad}");
        }
    }

    /// A group's one receipt is the sum of its source tiles' bytes.
    #[test]
    fn a_group_receipt_sums_its_tiles() {
        let mut w = holder();
        let tiles: u64 = {
            let store = w.store.lock().unwrap();
            store[&(1, 0)]
                .values()
                .map(|t| t.actual_bytes() as u64)
                .sum()
        };
        let reply = run(&mut w, &xfer_of(&[(0, 1, None, &[(0, 0), (0, 1)])])).unwrap();
        assert_eq!(xferred(reply), (vec![tiles], vec![]));
        assert_eq!(tiles, 8 + 48);
        assert_eq!(landed(&w.store).len(), 2);
    }
}
