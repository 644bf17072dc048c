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
//! Every message is a [`proto`] value; [`proto`]'s module doc holds the
//! protocol table. The worker says `hello` on connect, then answers each
//! command with one reply, in order, echoing its sequence number, while a
//! thread of its own sends heartbeats on the same stream. A frame that
//! does not decode, or a command its state contradicts, is answered
//! `err`: the worker survives bad commands, and exits when the coordinator
//! closes the connection or sends `shutdown`. A generating `install`
//! ([`Cmd::Generate`]) is held to the grid it names before a cell is made
//! with [`dmac_matrix::random_cell`], the oracle's generator.
//!
//! ## Direct worker-to-worker exchange
//!
//! An `xfer` ([`Cmd::Xfer`]) is the one way a tile moves. The worker reads
//! every source tile and installs the groups that stay under one store
//! lock — a missing tile is an `err` before anything is installed — then,
//! lock released, pushes the rest, one `push` per destination host,
//! straight to the peer listeners; the coordinator never touches the
//! bytes. A peer acks (`got`) only once it installed the tiles, and the
//! worker replies `xferred` only once every push is acked, so every
//! install happens-before the seal that follows. Pushing with the lock
//! released keeps two workers pushing to each other from deadlocking; a
//! peer that cannot be reached is a `peerfail` reply naming its host.
//!
//! [`proto`]: crate::transport::proto

use std::collections::{BTreeMap, HashMap};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dmac_matrix::exec::{combine_partials, ResultBufferPool};
use dmac_matrix::{random_cell, Block, BlockedMatrix, DenseBlock, FusedOp};

use crate::cluster::ReduceKind;
use crate::dist::GridMeta;
use crate::kernels::{self, MulStage};
use crate::transport::binfmt;
use crate::transport::frame::{framed_len, read_frame_bytes, write_frame_bytes, MAX_FRAME};
use crate::transport::proto::{
    Cmd, Combine, Desc, Edge, Framed, Group, Key, Mul, Part, Peer, Place, Placed, Reply, Route,
    Shard,
};
use crate::transport::wire;

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
type Store = HashMap<(u64, usize), BTreeMap<Key, Block>>;

/// A tile with its place, owned: logical worker, block row, block column.
type Tile = (usize, usize, usize, Block);

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

    let hello = Reply::Hello {
        host: opts.host_id,
        pid: u64::from(std::process::id()),
        peer: peer_addr,
        bin: Some(binfmt::VERSION),
    };
    send(&writer, &hello.encode(None))?;

    // Heartbeat thread: beats until the socket dies, even while the main
    // thread is deep in a kernel — liveness is about the process, not
    // about command latency.
    {
        let writer = Arc::clone(&writer);
        let period = Duration::from_millis(opts.heartbeat_ms.max(1));
        let hb = Reply::Hb { host: opts.host_id }.encode(None);
        std::thread::spawn(move || loop {
            std::thread::sleep(period);
            if send(&writer, &hb).is_err() {
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
        let Framed { q, msg } = Cmd::decode(&raw);
        let bye = matches!(msg, Ok(Cmd::Shutdown));
        let reply = msg.and_then(|cmd| worker.dispatch(cmd));
        let reply = reply.unwrap_or_else(|msg| Reply::Err { msg });
        send(&writer, &reply.encode(q))?;
        if bye {
            return Ok(());
        }
    }
}

fn send(writer: &Mutex<TcpStream>, payload: &[u8]) -> Result<(), String> {
    let mut w = writer.lock().map_err(|_| "writer poisoned".to_string())?;
    write_frame_bytes(&mut *w, payload).map_err(|e| format!("write frame: {e}"))
}

/// Serve one inbound peer connection: each frame is a `push` carrying
/// tiles already in destination coordinates; install them and ack with
/// `got` so the sender can prove completion to the coordinator.
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
            Ok(()) => Peer::Got,
            Err(msg) => Peer::Err { msg },
        };
        if write_frame_bytes(&mut stream, &reply.encode(None)).is_err() {
            return;
        }
    }
}

/// Decode one pushed tile batch and install it.
fn install_push(raw: &[u8], store: &Mutex<Store>) -> Result<(), String> {
    match Peer::decode(raw).msg? {
        Peer::Push { rid, tiles } => install_tiles(store, rid, tiles.into_iter().map(owned)),
        other => Err(format!("peer frame is {}, not a push", other.kind())),
    }
}

/// A decoded tile's block out of its `Arc`, which the frame it came in
/// was the only holder of.
fn owned((w, bi, bj, tile): Placed) -> Tile {
    (w, bi, bj, Arc::unwrap_or_clone(tile))
}

/// Install placed tiles under `rid`.
fn install_tiles(
    store: &Mutex<Store>,
    rid: u64,
    tiles: impl IntoIterator<Item = Tile>,
) -> Result<(), String> {
    let mut store = store.lock().map_err(|_| "store poisoned".to_string())?;
    for (w, bi, bj, block) in tiles {
        store.entry((rid, w)).or_default().insert((bi, bj), block);
    }
    Ok(())
}

/// The tiles `tasks` name of the `random` source `matrix` under `seed` on
/// `grid`, made by the generator the oracle uses. Everything the command
/// says is checked — the grid, every key inside it, the bytes it asks for
/// against the frame ceiling — before a cell is made.
fn generated(
    seed: u64,
    matrix: u32,
    grid: &GridMeta,
    tasks: &[Group],
) -> Result<Vec<Tile>, String> {
    if grid.block == 0 {
        return Err("generator grid has block size 0".into());
    }
    let (mut keys, mut bytes) = (Vec::new(), 0u64);
    for group in tasks {
        for &(bi, bj) in &group.keys {
            if bi >= grid.row_blocks || bj >= grid.col_blocks {
                return Err(format!(
                    "generator key ({bi},{bj}) is outside the {}x{} grid",
                    grid.row_blocks, grid.col_blocks
                ));
            }
            let cells = (grid.block_rows_of(bi) as u64).checked_mul(grid.block_cols_of(bj) as u64);
            bytes = cells
                .and_then(|c| c.checked_mul(8))
                .and_then(|b| b.checked_add(bytes))
                .filter(|&b| b <= u64::from(MAX_FRAME))
                .ok_or_else(|| format!("generator asks for more than {MAX_FRAME} bytes"))?;
            keys.push((group.w, bi, bj));
        }
    }
    let (rows, cols, block) = (grid.rows, grid.cols, grid.block);
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

/// The shard of a value a worker never installed.
static EMPTY: BTreeMap<Key, Block> = BTreeMap::new();

/// Logical worker `w`'s shards of `operands` as their views read them: as
/// held, or each tile transposed once, keyed `(j, i)`, into `scratch`.
fn shards<'s>(
    store: &'s Store,
    operands: &[(u64, bool)],
    scratch: &'s mut Vec<Option<BTreeMap<Key, Block>>>,
    w: usize,
) -> Vec<&'s BTreeMap<Key, Block>> {
    *scratch = (operands.iter())
        .map(|&(rid, t)| {
            let held = store.get(&(rid, w)).into_iter().flatten();
            t.then(|| {
                held.map(|(&(bi, bj), t)| ((bj, bi), t.transpose()))
                    .collect()
            })
        })
        .collect();
    (operands.iter().zip(scratch.iter()))
        .map(|(&(rid, _), s)| s.as_ref().or(store.get(&(rid, w))).unwrap_or(&EMPTY))
        .collect()
}

/// Logical worker `w`'s multiply stage over its shards `a` and `b`.
fn mul_stage<'s>(
    [a, b]: [&'s BTreeMap<Key, Block>; 2],
    w: usize,
    kb: usize,
) -> Result<MulStage<'s>, String> {
    let shard = |s: &'s BTreeMap<Key, Block>| s.iter().map(|(&k, t)| (k, t));
    MulStage::new(shard(a), shard(b), kb).map_err(|e| format!("worker {w}: {e}"))
}

impl Worker {
    fn lock(&self) -> Result<std::sync::MutexGuard<'_, Store>, String> {
        self.store.lock().map_err(|_| "store poisoned".to_string())
    }

    fn dispatch(&mut self, cmd: Cmd) -> Result<Reply, String> {
        match cmd {
            Cmd::Peers { peers, timeout_ms } => {
                self.peers = peers;
                self.peer_timeout = Duration::from_millis(timeout_ms.max(1));
                self.peer_conns.clear();
                Ok(Reply::Ok)
            }
            Cmd::Install { rid, tiles } => {
                install_tiles(&self.store, rid, tiles.into_iter().map(owned))?;
                Ok(Reply::Ok)
            }
            Cmd::Generate {
                rid,
                seed,
                matrix,
                grid,
                tasks,
            } => {
                let tiles = generated(seed, matrix, &grid, &tasks)?;
                install_tiles(&self.store, rid, tiles)?;
                Ok(Reply::Ok)
            }
            Cmd::Collect { rid, items } => self.collect(rid, &items),
            Cmd::Seal { rid, ws } => self.seal(rid, &ws),
            Cmd::Fused {
                rids,
                tr,
                muls,
                prog,
                rid_out,
                tasks,
            } => self.fused((&rids, tr.as_deref(), &muls), &prog, rid_out, &tasks),
            Cmd::Cpmm1 {
                rid_a,
                rid_b,
                ta,
                tb,
                stage,
                n,
                kb,
                grid,
                ws,
            } => {
                let views = [(rid_a, ta == Some(true)), (rid_b, tb == Some(true))];
                self.cpmm1(views, stage, (n, kb), &grid, &ws)
            }
            Cmd::Cpmm2 {
                stage,
                rid_out,
                grid,
                tasks,
            } => self.cpmm2((stage, rid_out), &grid, &tasks),
            Cmd::Reduce { kind, rid, ws } => self.reduce(kind, rid, &ws),
            Cmd::Free { rid } => {
                self.lock()?.retain(|&(r, _), _| r != rid);
                Ok(Reply::Ok)
            }
            Cmd::Xfer {
                rid_in,
                rid_out,
                groups,
            } => self.xfer((rid_in, rid_out), &groups),
            Cmd::Shutdown => Ok(Reply::Bye),
        }
    }

    /// Execute a routing plan. Under the store lock, read every group's
    /// source tiles — a missing one is an error before anything is
    /// installed — and install the groups bound for this host; then, with
    /// the lock released, push the rest to their hosts' peer listeners,
    /// one batch per host, and await the acks. Symmetric xfers between
    /// two hosts must not deadlock on each other's installs.
    fn xfer(&mut self, (rid_in, rid_out): (u64, u64), groups: &[Route]) -> Result<Reply, String> {
        // Per-group source-byte receipts, this host's tiles, and the other
        // hosts' tiles per destination host.
        let mut bytes = Vec::with_capacity(groups.len());
        let mut local = Vec::new();
        let mut pushes: BTreeMap<usize, Vec<Placed>> = BTreeMap::new();
        {
            let mut store = self.lock()?;
            for group in groups {
                // A group names a destination host only to leave this one;
                // naming this one is refused, not a second spelling of
                // staying.
                if group.dh == Some(self.host) {
                    return Err(format!("xfer group names its own host {} as dh", self.host));
                }
                let mut receipt = 0u64;
                for &(bi, bj) in &group.keys {
                    let src = tile_of(&store, self.host, rid_in, group.wi, bi, bj)?;
                    receipt += src.actual_bytes() as u64;
                    let tile = src.clone();
                    match group.dh {
                        None => local.push((group.wo, (bi, bj), tile)),
                        Some(dh) => {
                            let tile = (group.wo, bi, bj, Arc::new(tile));
                            pushes.entry(dh).or_default().push(tile);
                        }
                    }
                }
                bytes.push(receipt);
            }
            for (wo, at, tile) in local {
                store.entry((rid_out, wo)).or_default().insert(at, tile);
            }
        }
        // Lock released: push each destination's batch and await acks.
        let mut edges = Vec::new();
        for (dh, tiles) in pushes {
            let payload = Peer::Push {
                rid: rid_out,
                tiles,
            }
            .encode(None);
            match self.push_to(dh, &payload) {
                Ok(ack_len) => {
                    let b = framed_len(payload.len()) + framed_len(ack_len);
                    edges.push(Edge { h: dh, f: 2, b });
                }
                // The coordinator folds this into its worker-loss path;
                // this worker stays healthy.
                Err(_) => return Ok(Reply::PeerFail { host: dh }),
            }
        }
        Ok(Reply::Xferred { bytes, edges })
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
            match Peer::decode(&ack).msg {
                Ok(Peer::Got) => Ok(ack.len()),
                Ok(Peer::Err { msg }) => Err(format!("peer {dh} rejected push: {msg}")),
                Ok(other) => Err(format!("peer {dh} acked with {}", other.kind())),
                Err(e) => Err(format!("peer {dh} ack: {e}")),
            }
        })();
        if res.is_err() {
            self.peer_conns.remove(&dh);
        }
        res
    }

    fn collect(&self, rid: u64, items: &[Place]) -> Result<Reply, String> {
        let store = self.lock()?;
        let mut tiles = Vec::with_capacity(items.len());
        for &Place { w, bi, bj } in items {
            let tile = tile_of(&store, self.host, rid, w, bi, bj)?;
            tiles.push((w, bi, bj, Arc::new(tile.clone())));
        }
        Ok(Reply::Tiles { tiles })
    }

    fn seal(&self, rid: u64, ws: &[usize]) -> Result<Reply, String> {
        let store = self.lock()?;
        let shard = |w: usize| {
            // A worker that owns nothing of this value legitimately
            // reports the empty shard.
            let held = store.get(&(rid, w)).into_iter().flatten();
            let n = store.get(&(rid, w)).map_or(0, BTreeMap::len);
            let x = wire::shard_checksum(held.map(|(&k, t)| (k, t)));
            Shard { w, n, x }
        };
        let shards = ws.iter().map(|&w| shard(w)).collect();
        Ok(Reply::Sealed { shards })
    }

    /// Each task's output tiles of a fused stage: per logical worker, one
    /// multiply stage per product; per tile, the plain leaves' tiles and
    /// [`kernels::fused_tile`] — the simulator's task, so the same bits.
    /// A view's shard is transposed once per worker ([`shards`]). The
    /// results wait for the last stage to let go of the store.
    fn fused(
        &mut self,
        (rids, tr, muls): (&[u64], Option<&[bool]>, &[Mul]),
        prog: &[FusedOp],
        rid_out: u64,
        tasks: &[Group],
    ) -> Result<Reply, String> {
        let mut store = self.lock()?;
        let mut tiles = Vec::new();
        let viewed = |i| tr.and_then(|tr: &[bool]| tr.get(i).copied()) == Some(true);
        let leaves = (rids.iter().enumerate()).map(|(i, &rid)| (rid, viewed(i)));
        let operands: Vec<(u64, bool)> = leaves
            .chain(
                (muls.iter()).flat_map(|m| [(m.a, m.ta == Some(true)), (m.b, m.tb == Some(true))]),
            )
            .collect();
        for &Group { w, ref keys } in tasks {
            let mut scratch = Vec::new();
            let shards = shards(&store, &operands, &mut scratch, w);
            let (held, products) = shards.split_at(rids.len());
            let stages = (muls.iter().zip(products.chunks_exact(2)))
                .map(|(m, ab)| mul_stage([ab[0], ab[1]], w, m.kb))
                .collect::<Result<Vec<_>, String>>()?;
            for &(bi, bj) in keys {
                let mut plain: Vec<&Block> = Vec::with_capacity(rids.len());
                for (&rid, shard) in rids.iter().zip(held) {
                    let host = self.host;
                    let missing =
                        || format!("missing tile rid={rid} w={w} ({bi},{bj}) on host {host}");
                    plain.push(shard.get(&(bi, bj)).ok_or_else(missing)?);
                }
                let at = |e: &dyn std::fmt::Display| {
                    format!("fused: tile ({bi},{bj}) on worker {w}: {e}")
                };
                // A tile has its leaves' shape, or its products' operands'.
                let shape = match (plain.first(), stages.first()) {
                    (Some(t), _) => Ok((t.rows(), t.cols())),
                    (None, Some(stage)) => stage.shape_at((bi, bj)),
                    (None, None) => return Err(at(&"no operands")),
                };
                let tile = shape
                    .and_then(|shape| {
                        kernels::fused_tile((&self.pool, 1), prog, &plain, &stages, shape, (bi, bj))
                    })
                    .map_err(|e| at(&e))?;
                tiles.push((w, (bi, bj), tile));
            }
        }
        for (w, at, tile) in tiles {
            store.entry((rid_out, w)).or_default().insert(at, tile);
        }
        Ok(Reply::Ok)
    }

    fn cpmm1(
        &mut self,
        [a, b]: [(u64, bool); 2],
        stage_rid: u64,
        (n, kb): (usize, usize),
        grid: &GridMeta,
        ws: &[usize],
    ) -> Result<Reply, String> {
        let mut store = self.lock()?;
        let mut descs = Vec::new();
        let mut partials = Vec::new();
        for &w in ws {
            let mut scratch = Vec::new();
            let shards = shards(&store, &[a, b], &mut scratch, w);
            let stage = mul_stage([shards[0], shards[1]], w, kb)?;
            // No k-slice, no partial — and no shard to hold the grid against.
            if w >= kb {
                continue;
            }
            // Column × Row shards span the result grid, so a described grid
            // that is not theirs never bounds the loops below.
            let (row_blocks, col_blocks) = stage.out_grid();
            if (row_blocks, col_blocks) != (grid.row_blocks, grid.col_blocks) {
                return Err(format!(
                    "cpmm: worker {w}'s shards span {row_blocks}x{col_blocks} result blocks, \
                     the command describes {}x{}",
                    grid.row_blocks, grid.col_blocks
                ));
            }
            for bi in 0..row_blocks {
                for bj in 0..col_blocks {
                    let shape = (grid.block_rows_of(bi), grid.block_cols_of(bj));
                    let partial = stage
                        .partial((&self.pool, 1), shape, (bi, bj), (w, n))
                        .map_err(|e| format!("cpmm: partial ({bi},{bj}) on worker {w}: {e}"))?;
                    if let Some(acc) = partial {
                        let b = acc.actual_bytes() as u64;
                        descs.push(Desc { w, bi, bj, b });
                        partials.push((w, (bi, bj), Block::Dense(acc)));
                    }
                }
            }
        }
        for (w, at, partial) in partials {
            store.entry((stage_rid, w)).or_default().insert(at, partial);
        }
        Ok(Reply::Partials { descs })
    }

    fn cpmm2(
        &mut self,
        (stage, rid_out): (u64, u64),
        grid: &GridMeta,
        tasks: &[Combine],
    ) -> Result<Reply, String> {
        let mut store = self.lock()?;
        for &Combine {
            w,
            bi,
            bj,
            ref srcs,
        } in tasks
        {
            let mut partials: Vec<&DenseBlock> = Vec::new();
            for &src in srcs {
                match tile_of(&store, self.host, stage, src, bi, bj)? {
                    Block::Dense(d) => partials.push(d),
                    Block::Sparse(_) => return Err("cpmm partial is not dense".to_string()),
                }
            }
            let shape = (grid.block_rows_of(bi), grid.block_cols_of(bj));
            let tile = combine_partials(shape, partials).map_err(|e| e.to_string())?;
            store
                .entry((rid_out, w))
                .or_default()
                .insert((bi, bj), tile);
        }
        Ok(Reply::Ok)
    }

    fn reduce(&self, kind: ReduceKind, rid: u64, ws: &[usize]) -> Result<Reply, String> {
        let store = self.lock()?;
        let part = |w: usize| {
            let x = match store.get(&(rid, w)) {
                Some(s) => kernels::reduce_shard(kind, s.values()),
                None => 0.0,
            };
            Part { w, x }
        };
        let parts = ws.iter().map(|&w| part(w)).collect();
        Ok(Reply::Reduced { parts })
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

    /// Every tile of `out`, one group per worker.
    fn groups_of(out: &DistMatrix) -> Vec<Group> {
        let group = |w| Group {
            w,
            keys: keys(out, w),
        };
        (0..out.workers()).map(group).collect()
    }

    /// Every tile of `out`, one `cpmm2` task each.
    fn tasks_of(out: &DistMatrix, srcs: impl Fn(usize, usize) -> Vec<usize>) -> Vec<Combine> {
        let tile = |w, (bi, bj)| Combine {
            w,
            bi,
            bj,
            srcs: srcs(bi, bj),
        };
        let tiles = (0..out.workers()).flat_map(|w| keys(out, w).into_iter().map(move |k| (w, k)));
        tiles.map(|(w, k)| tile(w, k)).collect()
    }

    /// A command as the coordinator writes it (no sequence number): the
    /// text the tests below change a field or a byte of.
    fn text(cmd: &Cmd) -> String {
        String::from_utf8(cmd.encode(None)).expect("a JSON command")
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
    /// placed both ways — Broadcast × Column for an RMM1 (`fused`, one
    /// product leaf), Column × Row for `cpmm1` — with each command as the
    /// coordinator encodes it and the
    /// simulator's result: dense and CSC result tiles, ragged edges, a
    /// k-panel of all-zero tiles. With `view`, the left operand is held
    /// transposed and read as a view, and an aligned `add` reads a leaf
    /// through one too.
    struct Staged {
        w: Worker,
        mm: String,
        mm_out: DistMatrix,
        add: String,
        add_out: DistMatrix,
        cpmm1: String,
        cpmm_out: DistMatrix,
        /// CPMM's staging rid: no rid the fixture minted.
        stage: u64,
    }

    fn staged(view: bool) -> Staged {
        use crate::dist::View;
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
        let kb = 4;
        let w = worker();
        // Held as it is read, or transposed under the flipped scheme.
        let held = |m: &dmac_matrix::BlockedMatrix, scheme: PartitionScheme| {
            let m = if view { m.transpose() } else { m.clone() };
            let held = cl.load(&m, if view { scheme.flip() } else { scheme });
            install(&w, &held);
            held
        };
        let a_bc = held(&a, PartitionScheme::Broadcast);
        let (a_col, bt_col) = (
            held(&a, PartitionScheme::Col),
            held(&b, PartitionScheme::Col),
        );
        let read = |m| View {
            m,
            transposed: view,
        };
        let (b_col, b_row) = (
            cl.load(&b, PartitionScheme::Col),
            cl.load(&b, PartitionScheme::Row),
        );
        install(&w, &b_col);
        install(&w, &b_row);

        let mm_out = cl.rmm1(read(&a_bc), &b_col).unwrap();
        let mm = Cmd::Fused {
            rids: Vec::new(),
            tr: None,
            muls: vec![Mul {
                a: a_bc.rid(),
                b: b_col.rid(),
                ta: view.then_some(true),
                tb: None,
                kb,
            }],
            prog: vec![FusedOp::Leaf(0)],
            rid_out: mm_out.rid(),
            tasks: groups_of(&mm_out),
        };

        // `b` beside itself, the second read through the view: twice `b`.
        let prog = vec![FusedOp::Leaf(0), FusedOp::Leaf(1), FusedOp::Add];
        let leaves = vec![
            b_col.clone().into(),
            View {
                m: bt_col.clone(),
                transposed: view,
            },
        ];
        let add_out = cl.cells("add", "", leaves, &[], &prog).unwrap();
        let add = Cmd::Fused {
            rids: vec![b_col.rid(), bt_col.rid()],
            tr: view.then(|| vec![false, true]),
            muls: Vec::new(),
            prog,
            rid_out: add_out.rid(),
            tasks: groups_of(&add_out),
        };

        let cpmm_out = cl.cpmm(read(&a_col), &b_row, PartitionScheme::Row).unwrap();
        let stage = 1 << 40;
        let cpmm1 = Cmd::Cpmm1 {
            rid_a: a_col.rid(),
            rid_b: b_row.rid(),
            ta: view.then_some(true),
            tb: None,
            stage,
            n: 2,
            kb,
            grid: *cpmm_out.meta(),
            ws: vec![0, 1],
        };
        Staged {
            w,
            mm: text(&mm),
            mm_out,
            add: text(&add),
            add_out,
            cpmm1: text(&cpmm1),
            cpmm_out,
            stage,
        }
    }

    /// Decode a command frame and dispatch it, as the daemon's loop does.
    fn run_bytes(w: &mut Worker, raw: &[u8]) -> Result<Reply, String> {
        Cmd::decode(raw).msg.and_then(|cmd| w.dispatch(cmd))
    }

    fn run(w: &mut Worker, cmd: &str) -> Result<Reply, String> {
        run_bytes(w, cmd.as_bytes())
    }

    /// The by-construction property, checked without launching a process:
    /// the daemon's RMM (`fused`), an aligned `add` and `cpmm1` + `cpmm2`
    /// over a hand-built store produce tiles whose shard checksums equal
    /// the simulator's for the same inputs — operands read as held, and
    /// read through views.
    #[test]
    fn rmm_and_cpmm_seal_like_the_simulator() {
        for view in [false, true] {
            seal_like_the_simulator(view);
        }
    }

    fn seal_like_the_simulator(view: bool) {
        let Staged {
            mut w,
            mm,
            mm_out,
            add,
            add_out,
            cpmm1,
            cpmm_out: out,
            stage,
        } = staged(view);
        assert_eq!(mm.contains(r#""ta":true"#), view, "{mm}");
        run(&mut w, &mm).map(drop).unwrap();
        assert_same_seals(&w, &mm_out, "mm");
        run(&mut w, &add).map(drop).unwrap();
        assert_same_seals(&w, &add_out, "add");
        assert!(
            (0..2).any(|lw| mm_out.worker_blocks(lw).values().any(|t| t.is_sparse()))
                && (0..2).any(|lw| mm_out.worker_blocks(lw).values().any(|t| !t.is_sparse())),
            "the inputs must exercise both result representations"
        );

        let Ok(Reply::Partials { descs }) = run(&mut w, &cpmm1) else {
            panic!("cpmm1 must answer with its partial descriptors");
        };
        assert!(!descs.is_empty());
        // Both logical workers share this host, so no partial has to move.
        let srcs_of = |bi: usize, bj: usize| {
            let at = descs.iter().filter(|d| (d.bi, d.bj) == (bi, bj));
            at.map(|d| d.w).collect()
        };
        let cpmm2 = Cmd::Cpmm2 {
            stage,
            rid_out: out.rid(),
            grid: *out.meta(),
            tasks: tasks_of(&out, srcs_of),
        };
        w.dispatch(cpmm2).map(drop).unwrap();
        assert_same_seals(&w, &out, "cpmm");
    }

    /// An RMM and `cpmm1` hold what they are told against the shards they
    /// hold: a command those contradict — or one sized to exhaust memory —
    /// is an `err` reply naming the result tile and the logical worker.
    /// Nothing panics, nothing is allocated by a command's word alone,
    /// nothing is stored, and the worker computes the true command after.
    #[test]
    fn rmm_and_cpmm1_hold_their_commands_against_their_shards() {
        let Staged {
            mut w,
            mm,
            mm_out,
            cpmm1,
            stage,
            ..
        } = staged(false);
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
        for (cmd, op) in [(&mm, "fused"), (&cpmm1, "cpmm")] {
            rejected(&mut w, &cmd.replace(r#""kb":4"#, r#""kb":3"#), &["worker "]);
            rejected(&mut w, &cmd.replace(r#""kb":4"#, r#""kb":0"#), &[]);
            let long = cmd.replace(r#""kb":4"#, &format!(r#""kb":{huge}"#));
            rejected(
                &mut w,
                &long,
                &[op, "on worker ", "missing input tile at k=4"],
            );
        }
        // The grid: a block size, or an extent, the tiles do not have. An
        // RMM's tiles take their operands' shape; it is told no grid.
        assert!(!mm.contains(r#""block":"#));
        for (field, was) in [("block", 3), ("rows", 7), ("cols", 8)] {
            let was = format!(r#""{field}":{was}"#);
            for now in ["0", "1", "2", "1099511627776", huge] {
                let cmd = cpmm1.replace(&was, &format!(r#""{field}":{now}"#));
                rejected(&mut w, &cmd, &["cpmm", "worker "]);
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
            let names = ["fused: tile (", "on worker ", "missing input tile at k=0"];
            rejected(&mut w, &mm.replace(first, &task), &names);
        }
        let Ok(Cmd::Fused { muls, .. }) = Cmd::decode(mm.as_bytes()).msg else {
            panic!("a fused command");
        };
        let unheld = mm.replace(&format!(r#""a":{}"#, muls[0].a), r#""a":99999"#);
        rejected(&mut w, &unheld, &["fused: tile (", "on worker "]);
        // A stride of none is every worker's own stride of one.
        let stride = cpmm1.replace(r#""n":2"#, r#""n":0"#);
        rejected(&mut w, &stride, &["cpmm: partial (", "on worker 0"]);

        // One byte of either command's encoding changed, 600 times, then
        // decoded and dispatched: an answer or an `err`, and whichever it
        // was the worker is as it was — bar a result it was asked, in so
        // many words, to store elsewhere.
        let mut rng = dmac_matrix::SplitMix64::new(0xF4A3_0008);
        for round in 0..600 {
            let mut bytes = [&mm, &cpmm1][round % 2].clone().into_bytes();
            let at = rng.below(bytes.len());
            bytes[at] = 0x20 + rng.below(0x5f) as u8;
            let _ = run_bytes(&mut w, &bytes);
        }
        w.store
            .lock()
            .unwrap()
            .retain(|&(rid, _), _| rid != mm_out.rid() && rid != stage);
        run(&mut w, &mm).map(drop).unwrap();
        assert_same_seals(&w, &mm_out, "mm after the sweep");
    }

    /// Tile payload is `DMB3` or nothing: an `install` or peer `push`
    /// carrying hex-JSON tiles (the retired wire format) in the header of
    /// the `DMB3` one comes back as a typed error — never a panic, never a
    /// silent zero-tile install.
    #[test]
    fn json_bodied_install_and_push_are_typed_errors() {
        let mut w = worker();
        let block = Block::Dense(DenseBlock::from_vec(1, 1, vec![1.0]).unwrap());
        let tiles = vec![(0, 0, 0, Arc::new(block))];
        let install = Cmd::Install {
            rid: 7,
            tiles: tiles.clone(),
        };
        let push = Peer::Push { rid: 8, tiles };
        let (install, push) = (install.encode(None), push.encode(None));
        let tile = r#"{"w":0,"bi":0,"bj":0,"k":"d","r":1,"c":1,"d":"3ff0000000000000"}"#;
        let json_bodied = |msg: &[u8]| {
            let (head, _) = binfmt::decode(msg).unwrap();
            head.replace('}', &format!(r#","tiles":[{tile}]}}"#))
        };
        let err =
            run(&mut w, &json_bodied(&install)).expect_err("JSON-bodied install must be rejected");
        assert!(err.contains("DMB3"), "{err}");
        let err = install_push(json_bodied(&push).as_bytes(), &w.store).unwrap_err();
        assert!(err.contains("DMB3"), "{err}");
        assert!(w.store.lock().unwrap().is_empty(), "nothing was installed");

        // The same tile as a DMB3 section installs through both doors.
        assert!(run_bytes(&mut w, &install).is_ok());
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
        let cmd = Cmd::Generate {
            rid: oracle.rid(),
            seed,
            matrix,
            grid: *oracle.meta(),
            tasks: groups_of(&oracle),
        };
        let mut w = worker();
        run(&mut w, &text(&cmd)).map(drop).unwrap();
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
        let good = &text(&Cmd::Generate {
            rid: 7,
            seed: 0xff,
            matrix: 3,
            grid: GridMeta::new(37, 50, 16),
            tasks: vec![Group {
                w: 0,
                keys: vec![(2, 3)],
            }],
        });
        assert!(good.contains(r#""seed":"00000000000000ff","m":3,"rows":37,"cols":50,"block":16,"tasks":[{"w":0,"k":[2,3]}]"#));
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
                "'seed' is missing",
            ),
            (
                good.replace("00000000000000ff", "ff"),
                "'seed' is not 16 hex digits",
            ),
            (good.replace(r#""m":3"#, r#""m":4294967296"#), "not a u32"),
            (good.replace(r#""rows":37,"#, ""), "'rows' is missing"),
        ] {
            let err = run(&mut w, &cmd)
                .err()
                .unwrap_or_else(|| panic!("accepted: {cmd}"));
            assert!(err.contains(says), "'{err}' does not say '{says}': {cmd}");
            assert!(w.store.lock().unwrap().is_empty(), "{cmd}");
        }
        // One byte of it changed, 600 times, decoded and dispatched: an
        // answer or an `err`.
        let mut rng = dmac_matrix::SplitMix64::new(0xF4A3_0030);
        for _ in 0..600 {
            let mut bytes = good.as_bytes().to_vec();
            bytes[rng.below(good.len())] = 0x20 + rng.below(0x5f) as u8;
            let _ = run_bytes(&mut w, &bytes);
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

    /// An `xfer` of rid 1 → rid 2, with these groups.
    fn xfer(groups: &[G]) -> Cmd {
        let route = |&(wi, wo, dh, keys): &G| Route {
            wi,
            wo,
            dh,
            keys: keys.to_vec(),
        };
        let groups = groups.iter().map(route).collect();
        Cmd::Xfer {
            rid_in: 1,
            rid_out: 2,
            groups,
        }
    }

    /// An `xfer` of rid 1 → rid 2, with these groups, as written.
    fn xfer_of(groups: &[G]) -> String {
        text(&xfer(groups))
    }

    /// The `xferred` reply's per-group receipts and per-edge hosts.
    fn xferred(reply: Reply) -> (Vec<u64>, Vec<usize>) {
        let Reply::Xferred { bytes, edges } = reply else {
            panic!("expected xferred, got {}", reply.kind())
        };
        (bytes, edges.iter().map(|e| e.h).collect())
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
    /// the spot, each tile under its key, with receipts in group order, no edges, and
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
        assert_eq!(got.keys().collect::<Vec<_>>(), [&(0, (0, 0)), &(1, (0, 1))]);
        assert_eq!(got[&(1, (0, 1))], want(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]));
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
        assert_eq!((here, there), (vec![(1, (0, 1))], vec![(0, (0, 0))]));
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
        let err = run(&mut w, &plan).expect_err("a missing tile is refused");
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
            (r#"{"wi":0,"wo":0}"#, "field 'k' is missing"),
        ] {
            let plan = text(&xfer(&[]));
            let plan = plan.replace(r#""groups":[]"#, &format!(r#""groups":[{good},{bad}]"#));
            let err = run(&mut w, &plan).expect_err("a malformed group is refused");
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
