//! The worker protocol, spelled once. Every message on the coordinator ↔
//! `dmac-workerd` link and on the worker ↔ worker link is a value of
//! [`Cmd`], [`Reply`] or [`Peer`], declared below as it travels: its
//! `"t"`, then its fields in wire order, each under its key. `encode` and
//! `decode` are derived from that one declaration, so neither side builds
//! or reads a header by hand and no key is spelled twice.
//!
//! ## Envelope
//!
//! A message is one length-prefixed frame ([`super::frame`]): a JSON
//! header, or — where the message carries bulk payload — a `DMB3` message
//! ([`super::binfmt`]) with that header and a tile section or an f64
//! section as its body. A command carries a per-connection sequence
//! number `"q"`, written last, which its reply echoes; a hello, a
//! heartbeat and a peer message carry none. The `u64` / `f64` bits a
//! header carries (a seed, seal checksums, reduce partials) are 16 hex
//! digits: JSON numbers carry 53 bits exactly.
//!
//! | command | reply | `DMB3` body |
//! |---|---|---|
//! | `peers` | `ok` | — |
//! | `install` ([`Cmd::Install`]) | `ok` | tile section |
//! | `install` ([`Cmd::Generate`]) | `ok` | — |
//! | `collect` | `tiles` | the reply's: tile section |
//! | `seal` | `sealed` | — |
//! | `cpmm2` | `ok` | — |
//! | `fused` (an RMM is one) | `ok` | the program's f64 constants, if it has any |
//! | `cpmm1` | `partials` | — |
//! | `reduce` | `reduced` | — |
//! | `free` | `ok` | — |
//! | `xfer` | `xferred`, or `peerfail` naming a peer it could not reach | — |
//! | `shutdown` | `bye` | — |
//!
//! Any command may be answered `err`. Unasked, a worker says `hello` once,
//! on connect, and `hb` every heartbeat period. Between workers, a `push`
//! (a tile section body, in destination coordinates) is answered `got`
//! once its tiles are installed, or `err`.
//!
//! ## What decoding checks
//!
//! Everything a message can get wrong on its own: every field present
//! with its type, a group's `k` given as `(bi, bj)` pairs, 16 hex digits
//! where bits travel, a generator's `m` within `u32`, every peer address
//! a string, a tile or constant section that decodes, a body only where
//! the message has one. What needs state — a grid against the shards a
//! worker holds, a missing tile, a `dh` naming the worker's own host — is
//! the worker's to check.

use std::fmt::Write as _;
use std::sync::Arc;

use dmac_matrix::{Block, FusedOp};

use crate::cluster::ReduceKind;
use crate::codec::{Field, Hex, In, Message, Out, Value};
use crate::dist::GridMeta;
use crate::jsonin::Json;
use crate::transport::binfmt;

/// A tile key: block row, block column.
pub type Key = (usize, usize);

/// A tile with its place: logical worker, block row, block column.
pub type Placed = (usize, usize, usize, Arc<Block>);

crate::objects! {
    /// Tiles `keys` of logical worker `w`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Group { w: usize, keys = "k": Vec<Key> }

    /// One group of an `xfer` routing plan: tiles `keys` of worker `wi`'s
    /// shard of the source value become worker `wo`'s in the destination
    /// value, on host `dh` — named only by a group that leaves its
    /// source's host.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Route { wi: usize, wo: usize, dh: Option<usize>, keys = "k": Vec<Key> }

    /// One product leaf of a `fused` command: `a` × `b`, over `kb` blocks
    /// of the shared dimension — each operand read as its transpose when
    /// `ta` / `tb` says `true` (a view; absent when it is not one).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Mul { a: u64, b: u64, ta: Option<bool>, tb: Option<bool>, kb: usize }

    /// Tile `(bi, bj)` of worker `w`, as a `collect` asks for it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Place { w: usize, bi: usize, bj: usize }

    /// One `cpmm2` task: worker `w`'s output tile `(bi, bj)` combines the
    /// partials of workers `srcs`, in that (ascending) order.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Combine { w: usize, bi: usize, bj: usize, srcs: Vec<usize> }

    /// One shard of a `sealed` reply: worker `w` holds `n` tiles of the
    /// value, of canonical checksum `x`
    /// ([`crate::transport::wire::shard_checksum`]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Shard { w: usize, n: usize, x: u64 | Hex }

    /// One partial of a `reduced` reply: worker `w`'s fold `x` of its
    /// shard, bit-exact.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Part { w: usize, x: f64 }

    /// One partial product of a `partials` reply: worker `w` made output
    /// tile `(bi, bj)`'s partial, of `b` bytes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Desc { w: usize, bi: usize, bj: usize, b: u64 }

    /// One edge of an `xferred` reply: the push to host `h`, `f` frames of
    /// `b` framed bytes (push and ack).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Edge { h: usize, f: u64, b: u64 }
}

crate::messages! {
    "t";

    "command"
    /// A command, coordinator → worker.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Cmd {
        /// Adopt the peer address table (per host id) and the timeout of
        /// peer links.
        Peers = "peers" { peers: Vec<String>, timeout_ms: u64 },
        /// Make the tiles `tasks` name of `random` source `matrix` with the
        /// oracle's generator under `seed`, on `grid`, and install them
        /// under `rid`. Read before [`Cmd::Install`], which is the
        /// `install` with a body.
        Generate = "install" {
            rid: u64, seed: u64 | Hex, matrix = "m": u32, grid: GridMeta, tasks: Vec<Group>,
        },
        /// Install a bound input's tiles under `rid`.
        Install = "install" { rid: u64, tiles: Vec<Placed> },
        /// Send back these tiles of `rid`.
        Collect = "collect" { rid: u64, items: Vec<Place> },
        /// Prove the shards of `rid` that workers `ws` hold.
        Seal = "seal" { rid: u64, ws: Vec<usize> },
        /// A scheme-aligned cell-wise program over the leaves `rids` — leaf
        /// `i` read as its transpose when `tr[i]` is set (a view; no `tr`
        /// when no leaf is one) — then
        /// the products `muls` folded per tile, each task's tiles into
        /// `rid_out`. An RMM is one product and the program `[Leaf(0)]`.
        Fused = "fused" {
            rids: Vec<u64>, tr: Option<Vec<bool>>, muls: Vec<Mul>, prog: Vec<FusedOp>, rid_out: u64,
            tasks: Vec<Group>,
        },
        /// CPMM phase 1: workers `ws` each store their partial products of
        /// `rid_a` × `rid_b` — each read as its transpose when `ta` / `tb`
        /// says `true` — under `stage` (`n` workers stride the `kb` k-slices).
        Cpmm1 = "cpmm1" {
            rid_a: u64, rid_b: u64, ta: Option<bool>, tb: Option<bool>, stage: u64, n: usize,
            kb: usize, grid: GridMeta, ws: Vec<usize>,
        },
        /// CPMM phase 2: each task combines partials under `stage` into
        /// `rid_out`.
        Cpmm2 = "cpmm2" { stage: u64, rid_out: u64, grid: GridMeta, tasks: Vec<Combine> },
        /// Fold the shards of `rid` that workers `ws` hold.
        Reduce = "reduce" { kind: ReduceKind, rid: u64, ws: Vec<usize> },
        /// Drop every shard of `rid`.
        Free = "free" { rid: u64 },
        /// A routing plan from `rid_in` to `rid_out`: install the groups
        /// that stay, push the rest.
        Xfer = "xfer" { rid_in: u64, rid_out: u64, groups: Vec<Route> },
        /// Say `bye` and exit.
        Shutdown = "shutdown",
    }

    "reply"
    /// A reply, worker → coordinator.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Reply {
        /// A worker's introduction, once, on connect: its host id, process
        /// id, peer listener, and `bin` 3 — it speaks `DMB3` (a stale
        /// daemon does not say so).
        Hello = "hello" { host: usize, pid: u64, peer: String, bin: Option<u64> },
        /// A heartbeat.
        Hb = "hb" { host: usize },
        /// Done.
        Ok = "ok",
        /// Exiting, as asked.
        Bye = "bye",
        /// The command failed.
        Err = "err" { msg: String },
        /// A peer push did not reach `host`.
        PeerFail = "peerfail" { host: usize },
        /// A `seal`'s answer, one shard per worker asked about.
        Sealed = "sealed" { shards: Vec<Shard> },
        /// An `xfer`'s receipt: source bytes per group, in group order, and
        /// one edge per push.
        Xferred = "xferred" { bytes: Vec<u64>, edges: Vec<Edge> },
        /// A `cpmm1`'s partial products.
        Partials = "partials" { descs: Vec<Desc> },
        /// A `reduce`'s partials, one per worker asked about.
        Reduced = "reduced" { parts: Vec<Part> },
        /// A `collect`'s tiles.
        Tiles = "tiles" { tiles: Vec<Placed> },
    }

    "peer message"
    /// A message on a worker ↔ worker link.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Peer {
        /// Install these tiles under `rid`.
        Push = "push" { rid: u64, tiles: Vec<Placed> },
        /// The push is installed.
        Got = "got",
        /// The push was refused.
        Err = "err" { msg: String },
    }
}

/// A frame decoded: the sequence number its header carries (`None` when
/// it carries none, or no header could be read), and the message — or
/// what is wrong with it.
#[derive(Debug)]
pub struct Framed<T> {
    /// The header's `"q"`.
    pub q: Option<u64>,
    /// The message.
    pub msg: Result<T, String>,
}

/// Give each message enum its frame's `encode` and `decode`.
macro_rules! framed {
    ($($name:ident)*) => {$(
        impl $name {
            /// The frame payload: the header, sequence number `q` last, and
            /// the body where the message has one.
            pub fn encode(&self, q: Option<u64>) -> Vec<u8> {
                encode(self, q)
            }

            /// Decode a frame.
            pub fn decode(raw: &[u8]) -> Framed<$name> {
                open(raw)
            }
        }
    )*};
}

framed!(Cmd Reply Peer);

fn encode(m: &impl Message, q: Option<u64>) -> Vec<u8> {
    let mut out = Out::new(String::with_capacity(256));
    m.put(&mut out);
    if let Some(q) = q {
        u64::put(&q, "q", &mut out);
    }
    let body = out.body.take();
    let head = out.close();
    match body {
        Some(body) => binfmt::encode(&head, &body),
        None => head.into_bytes(),
    }
}

/// Open a frame — a `DMB3` message or a JSON text — and read its message
/// from the header and the body.
fn open<M: Message>(raw: &[u8]) -> Framed<M> {
    let split = if binfmt::is_binary(raw) {
        binfmt::decode(raw).map(|(head, body)| (head, Some(body)))
    } else {
        std::str::from_utf8(raw)
            .map(|head| (head, None))
            .map_err(|e| e.to_string())
    };
    let head = split.and_then(|(head, body)| match Json::parse(head) {
        Ok(head) => Ok((head, body)),
        Err(e) => Err(format!("unparseable frame header: {e}")),
    });
    match head {
        Ok((head, body)) => Framed {
            q: head.get("q").and_then(Json::as_u64),
            msg: M::read(&mut In { head: &head, body }),
        },
        Err(e) => Framed {
            q: None,
            msg: Err(e),
        },
    }
}

/// Tile keys, flat: `[bi,bj,bi,bj,…]`.
impl Value for Vec<Key> {
    fn render(&self, buf: &mut String) {
        buf.push('[');
        for (i, (bi, bj)) in self.iter().enumerate() {
            let _ = write!(buf, "{}{bi},{bj}", if i > 0 { "," } else { "" });
        }
        buf.push(']');
    }

    fn read(j: &Json) -> Result<Vec<Key>, String> {
        let k = Vec::<usize>::read(j)?;
        if k.len() % 2 != 0 {
            return Err(format!("holds {} numbers, not (bi, bj) pairs", k.len()));
        }
        Ok(k.chunks_exact(2).map(|p| (p[0], p[1])).collect())
    }
}

impl Value for ReduceKind {
    fn render(&self, buf: &mut String) {
        buf.push_str(match self {
            ReduceKind::Sum => "\"sum\"",
            ReduceKind::Norm2 => "\"norm2\"",
        });
    }

    fn read(j: &Json) -> Result<ReduceKind, String> {
        match j.as_str() {
            Some("sum") => Ok(ReduceKind::Sum),
            Some("norm2") => Ok(ReduceKind::Norm2),
            _ => Err("is no reduction".into()),
        }
    }
}

/// The grid travels as three fields of its own: `rows`, `cols`, `block`.
impl Field for GridMeta {
    fn put(v: &GridMeta, _: &str, out: &mut Out) {
        for (key, n) in [("rows", v.rows), ("cols", v.cols), ("block", v.block)] {
            usize::put(&n, key, out);
        }
    }

    fn get(_: &str, msg: &mut In) -> Result<GridMeta, String> {
        let (rows, cols) = (usize::get("rows", msg)?, usize::get("cols", msg)?);
        Ok(GridMeta::new(rows, cols, usize::get("block", msg)?))
    }
}

/// Tiles are the message's body: a tile section.
impl Field for Vec<Placed> {
    fn put(v: &Vec<Placed>, _: &str, out: &mut Out) {
        let tiles = v.iter().map(|(w, bi, bj, t)| (*w, *bi, *bj, &**t));
        out.body = Some(binfmt::encode_tiles(tiles));
    }

    fn get(_: &str, msg: &mut In) -> Result<Vec<Placed>, String> {
        let body = msg.body.take().ok_or("no DMB3 body for the tiles")?;
        let tiles = binfmt::decode_tiles(body)?.into_iter();
        Ok(tiles
            .map(|(w, bi, bj, t)| (w, bi, bj, Arc::new(t)))
            .collect())
    }
}

/// A cell-wise program: its ops in the header, its scalar constants a raw
/// f64 body the ops name by slot (`{"o":"scale","ci":0}`) — a program
/// without any has no body.
impl Field for Vec<FusedOp> {
    fn put(v: &Vec<FusedOp>, key: &str, out: &mut Out) {
        let mut consts = Vec::new();
        let mut slot = |c: f64| {
            consts.push(c);
            Some(("ci", consts.len() - 1))
        };
        let buf = out.key(key);
        buf.push('[');
        for (i, f) in v.iter().enumerate() {
            let (op, arg) = match *f {
                FusedOp::Leaf(i) => ("leaf", Some(("i", i))),
                FusedOp::Add => ("add", None),
                FusedOp::Sub => ("sub", None),
                FusedOp::CellMul => ("cmul", None),
                FusedOp::CellDiv => ("cdiv", None),
                FusedOp::Scale(c) => ("scale", slot(c)),
                FusedOp::AddScalar(c) => ("adds", slot(c)),
            };
            let _ = write!(buf, "{}{{\"o\":\"{op}\"", if i > 0 { "," } else { "" });
            if let Some((k, n)) = arg {
                let _ = write!(buf, ",\"{k}\":{n}");
            }
            buf.push('}');
        }
        buf.push(']');
        out.body = (!consts.is_empty()).then(|| binfmt::encode_f64s(&consts));
    }

    fn get(key: &str, msg: &mut In) -> Result<Vec<FusedOp>, String> {
        let consts = msg.body.take().map(binfmt::decode_f64s).transpose()?;
        let consts = consts.unwrap_or_default();
        let op = |head: &Json| {
            let o = &mut In::new(head);
            let constant = |o: &mut In| {
                let ci = usize::get("ci", o)?;
                let c = consts.get(ci).copied();
                c.ok_or_else(|| format!("constant slot {ci} out of range"))
            };
            Ok(match String::get("o", o)?.as_str() {
                "leaf" => FusedOp::Leaf(usize::get("i", o)?),
                "add" => FusedOp::Add,
                "sub" => FusedOp::Sub,
                "cmul" => FusedOp::CellMul,
                "cdiv" => FusedOp::CellDiv,
                "scale" => FusedOp::Scale(constant(o)?),
                "adds" => FusedOp::AddScalar(constant(o)?),
                other => return Err(format!("unknown fused op '{other}'")),
            })
        };
        let ops = msg.head.get(key).and_then(Json::as_arr);
        let ops = ops.ok_or_else(|| format!("field '{key}' is not an array"))?;
        ops.iter().map(op).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmac_matrix::{CscBlock, DenseBlock};

    /// Two placed tiles, dense and CSC.
    fn placed() -> Vec<Placed> {
        let dense = DenseBlock::from_vec(1, 2, vec![1.5, -0.0]).unwrap();
        let csc = CscBlock::from_csc(2, 2, vec![0, 1, 1], vec![1], vec![0.25]).unwrap();
        vec![
            (0, 1, 2, Arc::new(Block::Dense(dense))),
            (3, 0, 0, Arc::new(Block::Sparse(csc))),
        ]
    }

    fn section_of(tiles: &[Placed]) -> Vec<u8> {
        binfmt::encode_tiles(tiles.iter().map(|(w, bi, bj, t)| (*w, *bi, *bj, &**t)))
    }

    fn group(w: usize, keys: &[Key]) -> Group {
        let keys = keys.to_vec();
        Group { w, keys }
    }

    /// Every message encodes to the bytes the coordinator's and the
    /// daemon's hand-built headers made — same keys, same order, `"q"`
    /// last — and decodes back to itself. One literal per variant, and a
    /// second `fused` that is an RMM: the wire did not move.
    #[test]
    fn every_message_keeps_its_bytes() {
        let grid = GridMeta::new(7, 8, 3);
        let stage = 1 << 40;
        let json = |s: &str| s.as_bytes().to_vec();
        let cmds: Vec<(Cmd, Vec<u8>)> = vec![
            (
                Cmd::Peers {
                    peers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
                    timeout_ms: 2000,
                },
                json(
                    r#"{"t":"peers","peers":["127.0.0.1:1","127.0.0.1:2"],"timeout_ms":2000,"q":5}"#,
                ),
            ),
            (
                Cmd::Install {
                    rid: 7,
                    tiles: placed(),
                },
                binfmt::encode(r#"{"t":"install","rid":7,"q":5}"#, &section_of(&placed())),
            ),
            (
                Cmd::Generate {
                    rid: 7,
                    seed: 0xff,
                    matrix: 3,
                    grid: GridMeta::new(37, 50, 16),
                    tasks: vec![group(0, &[(2, 3)]), group(1, &[(0, 0), (1, 1)])],
                },
                json(
                    r#"{"t":"install","rid":7,"seed":"00000000000000ff","m":3,"rows":37,"cols":50,"block":16,"tasks":[{"w":0,"k":[2,3]},{"w":1,"k":[0,0,1,1]}],"q":5}"#,
                ),
            ),
            (
                Cmd::Collect {
                    rid: 7,
                    items: vec![Place { w: 0, bi: 1, bj: 2 }, Place { w: 1, bi: 0, bj: 0 }],
                },
                json(
                    r#"{"t":"collect","rid":7,"items":[{"w":0,"bi":1,"bj":2},{"w":1,"bi":0,"bj":0}],"q":5}"#,
                ),
            ),
            (
                Cmd::Seal {
                    rid: 7,
                    ws: vec![0, 2],
                },
                json(r#"{"t":"seal","rid":7,"ws":[0,2],"q":5}"#),
            ),
            (
                Cmd::Fused {
                    rids: vec![],
                    tr: None,
                    muls: vec![Mul {
                        a: 1,
                        b: 2,
                        ta: None,
                        tb: None,
                        kb: 4,
                    }],
                    prog: vec![FusedOp::Leaf(0)],
                    rid_out: 3,
                    tasks: vec![group(0, &[(2, 0), (2, 2)]), group(1, &[(0, 1)])],
                },
                json(
                    r#"{"t":"fused","rids":[],"muls":[{"a":1,"b":2,"kb":4}],"prog":[{"o":"leaf","i":0}],"rid_out":3,"tasks":[{"w":0,"k":[2,0,2,2]},{"w":1,"k":[0,1]}],"q":5}"#,
                ),
            ),
            (
                Cmd::Fused {
                    rids: vec![8, 9],
                    tr: None,
                    muls: vec![],
                    prog: vec![
                        FusedOp::Leaf(0),
                        FusedOp::Scale(2.0),
                        FusedOp::Leaf(1),
                        FusedOp::AddScalar(-0.5),
                        FusedOp::Add,
                    ],
                    rid_out: 10,
                    tasks: vec![group(0, &[(0, 0)])],
                },
                binfmt::encode(
                    r#"{"t":"fused","rids":[8,9],"muls":[],"prog":[{"o":"leaf","i":0},{"o":"scale","ci":0},{"o":"leaf","i":1},{"o":"adds","ci":1},{"o":"add"}],"rid_out":10,"tasks":[{"w":0,"k":[0,0]}],"q":5}"#,
                    &binfmt::encode_f64s(&[2.0, -0.5]),
                ),
            ),
            (
                Cmd::Cpmm1 {
                    rid_a: 4,
                    rid_b: 5,
                    ta: None,
                    tb: None,
                    stage,
                    n: 2,
                    kb: 4,
                    grid,
                    ws: vec![0, 1],
                },
                json(
                    r#"{"t":"cpmm1","rid_a":4,"rid_b":5,"stage":1099511627776,"n":2,"kb":4,"rows":7,"cols":8,"block":3,"ws":[0,1],"q":5}"#,
                ),
            ),
            (
                Cmd::Cpmm2 {
                    stage,
                    rid_out: 6,
                    grid,
                    tasks: vec![Combine {
                        w: 0,
                        bi: 0,
                        bj: 1,
                        srcs: vec![0, 1],
                    }],
                },
                json(
                    r#"{"t":"cpmm2","stage":1099511627776,"rid_out":6,"rows":7,"cols":8,"block":3,"tasks":[{"w":0,"bi":0,"bj":1,"srcs":[0,1]}],"q":5}"#,
                ),
            ),
            (
                Cmd::Reduce {
                    kind: ReduceKind::Norm2,
                    rid: 7,
                    ws: vec![0, 1],
                },
                json(r#"{"t":"reduce","kind":"norm2","rid":7,"ws":[0,1],"q":5}"#),
            ),
            (Cmd::Free { rid: 7 }, json(r#"{"t":"free","rid":7,"q":5}"#)),
            (
                Cmd::Xfer {
                    rid_in: 6,
                    rid_out: 7,
                    groups: vec![
                        Route {
                            wi: 0,
                            wo: 1,
                            dh: Some(1),
                            keys: vec![(0, 1), (2, 1)],
                        },
                        Route {
                            wi: 1,
                            wo: 1,
                            dh: None,
                            keys: vec![(2, 0)],
                        },
                    ],
                },
                json(
                    r#"{"t":"xfer","rid_in":6,"rid_out":7,"groups":[{"wi":0,"wo":1,"dh":1,"k":[0,1,2,1]},{"wi":1,"wo":1,"k":[2,0]}],"q":5}"#,
                ),
            ),
            (Cmd::Shutdown, json(r#"{"t":"shutdown","q":5}"#)),
        ];
        let kinds: std::collections::BTreeSet<_> = cmds.iter().map(|(c, _)| c.kind()).collect();
        assert_eq!(
            (cmds.len(), kinds.len()),
            (13, 11),
            "13 literals, two each of `install` and `fused` (an RMM is one)"
        );
        for (cmd, bytes) in &cmds {
            assert_eq!(&cmd.encode(Some(5)), bytes, "{cmd:?}");
            let back = Cmd::decode(bytes);
            assert_eq!((back.q, back.msg.as_ref()), (Some(5), Ok(cmd)));
        }

        let replies: Vec<(Reply, Option<u64>, Vec<u8>)> = vec![
            (
                Reply::Hello {
                    host: 1,
                    pid: 4242,
                    peer: "127.0.0.1:9".into(),
                    bin: Some(1),
                },
                None,
                json(r#"{"t":"hello","host":1,"pid":4242,"peer":"127.0.0.1:9","bin":1}"#),
            ),
            (Reply::Hb { host: 1 }, None, json(r#"{"t":"hb","host":1}"#)),
            (Reply::Ok, Some(5), json(r#"{"t":"ok","q":5}"#)),
            (Reply::Bye, Some(5), json(r#"{"t":"bye","q":5}"#)),
            (
                Reply::Err {
                    msg: "unknown command 'x'".into(),
                },
                Some(5),
                json(r#"{"t":"err","msg":"unknown command 'x'","q":5}"#),
            ),
            (
                Reply::PeerFail { host: 2 },
                Some(5),
                json(r#"{"t":"peerfail","host":2,"q":5}"#),
            ),
            (
                Reply::Sealed {
                    shards: vec![Shard {
                        w: 0,
                        n: 3,
                        x: 0xcbf2_9ce4_8422_2325,
                    }],
                },
                Some(5),
                json(r#"{"t":"sealed","shards":[{"w":0,"n":3,"x":"cbf29ce484222325"}],"q":5}"#),
            ),
            (
                Reply::Xferred {
                    bytes: vec![8, 48],
                    edges: vec![Edge { h: 1, f: 2, b: 141 }],
                },
                Some(5),
                json(r#"{"t":"xferred","bytes":[8,48],"edges":[{"h":1,"f":2,"b":141}],"q":5}"#),
            ),
            (
                Reply::Partials {
                    descs: vec![Desc {
                        w: 0,
                        bi: 1,
                        bj: 2,
                        b: 72,
                    }],
                },
                Some(5),
                json(r#"{"t":"partials","descs":[{"w":0,"bi":1,"bj":2,"b":72}],"q":5}"#),
            ),
            (
                Reply::Reduced {
                    parts: vec![Part { w: 0, x: -1.0 }],
                },
                Some(5),
                json(r#"{"t":"reduced","parts":[{"w":0,"x":"bff0000000000000"}],"q":5}"#),
            ),
            (
                Reply::Tiles { tiles: placed() },
                Some(5),
                binfmt::encode(r#"{"t":"tiles","q":5}"#, &section_of(&placed())),
            ),
        ];
        assert_eq!(replies.len(), 11);
        for (reply, q, bytes) in &replies {
            assert_eq!(&reply.encode(*q), bytes, "{reply:?}");
            let back = Reply::decode(bytes);
            assert_eq!((back.q, back.msg.as_ref()), (*q, Ok(reply)));
        }

        let peers = [
            (
                Peer::Push {
                    rid: 7,
                    tiles: placed(),
                },
                binfmt::encode(r#"{"t":"push","rid":7}"#, &section_of(&placed())),
            ),
            (Peer::Got, json(r#"{"t":"got"}"#)),
            (
                Peer::Err {
                    msg: "tile section truncated".into(),
                },
                json(r#"{"t":"err","msg":"tile section truncated"}"#),
            ),
        ];
        for (peer, bytes) in &peers {
            assert_eq!(&peer.encode(None), bytes, "{peer:?}");
            assert_eq!(Peer::decode(bytes).msg.as_ref(), Ok(peer));
        }
    }

    /// What a message can get wrong on its own is a typed decode error:
    /// a peer address that is not a string, a hello without its peer, a
    /// seed or checksum that is not 16 hex digits, `k` that is not pairs,
    /// a body where the message has none, a push without one.
    #[test]
    fn a_message_wrong_on_its_own_does_not_decode() {
        let cmd = |s: &str| Cmd::decode(s.as_bytes()).msg.unwrap_err();
        let peers = Cmd::Peers {
            peers: vec!["a".into(), "b".into()],
            timeout_ms: 5,
        };
        let peers = String::from_utf8(peers.encode(Some(0))).unwrap();
        assert!(cmd(&peers.replace(r#""b""#, "3")).contains("'peers' item 1 is not a string"));
        let hello = Reply::Hello {
            host: 0,
            pid: 1,
            peer: "a".into(),
            bin: Some(1),
        };
        let hello = String::from_utf8(hello.encode(None)).unwrap();
        for bad in [
            hello.replace(r#","peer":"a""#, ""),
            hello.replace(r#""a""#, "7"),
        ] {
            let err = Reply::decode(bad.as_bytes()).msg.unwrap_err();
            assert!(err.contains("'peer'"), "{bad}: {err}");
        }
        let seal = Reply::Sealed {
            shards: vec![Shard { w: 0, n: 1, x: 2 }],
        };
        let seal = String::from_utf8(seal.encode(Some(1))).unwrap();
        for x in [
            "2",
            "+000000000000002",
            "000000000000000g",
            "00000000000000002",
        ] {
            let bad = seal.replace("0000000000000002", x);
            let err = Reply::decode(bad.as_bytes()).msg.unwrap_err();
            assert!(err.contains("16 hex digits"), "{x}: {err}");
        }
        let free = String::from_utf8(Cmd::Free { rid: 1 }.encode(Some(2))).unwrap();
        let err = Cmd::decode(&binfmt::encode(&free, &[])).msg.unwrap_err();
        assert!(err.contains("no use for"), "{err}");
        let push = binfmt::decode(
            &Peer::Push {
                rid: 1,
                tiles: placed(),
            }
            .encode(None),
        )
        .map(|(head, _)| head.to_string())
        .unwrap();
        assert!(Peer::decode(push.as_bytes())
            .msg
            .unwrap_err()
            .contains("DMB3"));
        // A header that does not parse has no sequence number to echo.
        let torn = Cmd::decode(&free.as_bytes()[..free.len() - 1]);
        assert_eq!(torn.q, None);
        assert!(torn.msg.is_err());
        // One that parses keeps it, whatever else is wrong with it.
        let unknown = Cmd::decode(free.replace("free", "frees").as_bytes());
        assert_eq!(unknown.q, Some(2));
        assert_eq!(unknown.msg, Err("unknown command 'frees'".into()));
    }

    /// A view's bit travels only when set: a `fused` command whose leaves
    /// read a view lists every leaf's bit (none read one: no list), a
    /// product or a `cpmm1` operand says `ta` / `tb`, and a command that
    /// reads no view has the bytes it had without them.
    #[test]
    fn a_view_bit_travels_only_when_set() {
        let mul = |ta: bool, tb: bool| Mul {
            a: 1,
            b: 2,
            ta: ta.then_some(true),
            tb: tb.then_some(true),
            kb: 4,
        };
        let fused = |tr: Option<Vec<bool>>, m: Mul| Cmd::Fused {
            rids: vec![8, 9],
            tr,
            muls: vec![m],
            prog: vec![FusedOp::Leaf(0)],
            rid_out: 3,
            tasks: vec![],
        };
        let text = |c: &Cmd| String::from_utf8(c.encode(Some(5))).unwrap();
        let plain = fused(None, mul(false, false));
        assert_eq!(
            text(&plain),
            r#"{"t":"fused","rids":[8,9],"muls":[{"a":1,"b":2,"kb":4}],"prog":[{"o":"leaf","i":0}],"rid_out":3,"tasks":[],"q":5}"#
        );
        let viewed = fused(Some(vec![false, true]), mul(true, false));
        assert_eq!(
            text(&viewed),
            r#"{"t":"fused","rids":[8,9],"tr":[false,true],"muls":[{"a":1,"b":2,"ta":true,"kb":4}],"prog":[{"o":"leaf","i":0}],"rid_out":3,"tasks":[],"q":5}"#
        );
        let cpmm = Cmd::Cpmm1 {
            rid_a: 4,
            rid_b: 5,
            ta: None,
            tb: Some(true),
            stage: 6,
            n: 2,
            kb: 4,
            grid: GridMeta::new(7, 8, 3),
            ws: vec![0],
        };
        assert!(text(&cpmm).contains(r#""rid_b":5,"tb":true,"stage":6"#));
        // An absent bit reads as unset: `plain` decodes to itself.
        for cmd in [plain, viewed, cpmm] {
            assert_eq!(Cmd::decode(&cmd.encode(Some(5))).msg, Ok(cmd));
        }
    }

    /// A cell-wise program's constants travel as a raw f64 body, bit
    /// exactly — NaN payloads and signed zeros included — and a slot past
    /// the body is a typed error.
    #[test]
    fn fused_constants_round_trip_bit_exactly() {
        let prog = vec![
            FusedOp::Leaf(0),
            FusedOp::Scale(-0.0),
            FusedOp::Leaf(1),
            FusedOp::AddScalar(f64::from_bits(0x7ff8_0000_0000_0001)),
            FusedOp::Sub,
            FusedOp::CellMul,
            FusedOp::CellDiv,
        ];
        let fused = Cmd::Fused {
            rids: vec![1, 2],
            tr: None,
            muls: vec![],
            prog: prog.clone(),
            rid_out: 3,
            tasks: vec![],
        };
        let raw = fused.encode(Some(0));
        let Ok(Cmd::Fused { prog: back, .. }) = Cmd::decode(&raw).msg else {
            panic!("a fused command");
        };
        let bits = |p: &[FusedOp]| -> Vec<Option<u64>> {
            let c = |op: &FusedOp| match op {
                FusedOp::Scale(c) | FusedOp::AddScalar(c) => Some(c.to_bits()),
                _ => None,
            };
            p.iter().map(c).collect()
        };
        assert_eq!(bits(&back), bits(&prog));
        let (head, consts) = binfmt::decode(&raw).unwrap();
        let short = binfmt::encode(head, &consts[..8]);
        let err = Cmd::decode(&short).msg.unwrap_err();
        assert!(err.contains("constant slot 1 out of range"), "{err}");
    }
}
