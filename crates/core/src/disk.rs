//! The durable disk tier under [`crate::store::SharedStore`] (PR 6).
//!
//! Layout of a data directory:
//!
//! ```text
//! <root>/blocks/<digest:016x>.blk  content-addressed immutable blobs: a DistMatrix each
//! <root>/manifest-<seq:06>.txt     snapshot manifests: a JSON document each (append-only seq)
//! <root>/CURRENT                   the published manifest's file name
//! <root>/plans/<fp:016x>.dml       persisted plan-cache scripts (serve)
//! ```
//!
//! **Every file is one frame**,
//! `"DMBK2\n" ∥ payload_len (u64 LE) ∥ payload ∥ digest(payload)`
//! ([`Digest`]), written by one writer and read back by one reader that
//! checks magic, length and digest before any payload byte is looked at.
//! A torn or rotted file of any kind — blob, manifest, `CURRENT` or plan —
//! fails that one check; nothing else in the tier reads the disk.
//!
//! **Blobs** hold one serialised [`DistMatrix`] each (geometry, scheme,
//! and the exact per-worker tile placement, so a reload reproduces the
//! physical layout bit-for-bit), and are named by the payload's own
//! digest — content addressing, so identical matrices across snapshots
//! share one file and re-checkpointing an unchanged matrix writes nothing.
//! Only [`DiskTier::put_blob`] names a payload (one hash pass: file name
//! and trailer), and a file already at that name is the blob only once
//! its frame reads back with that digest — a torn or misdirected file at
//! a final name is rewritten, never deduplicated against.
//!
//! A **manifest** is a JSON document that the workspace's one strict
//! decoder (`dmac_cluster::jsonin`) reads; it must carry the sequence
//! number its file name says, and each entry's hash must be a blob name.
//! **`CURRENT`** holds only the published manifest's file name: the
//! manifest verifies itself. A **plan file** holds the script.
//!
//! **Crash consistency** rests on two rules: every file is written to a
//! temp file and atomically renamed, and a snapshot only becomes visible
//! when the `CURRENT` pointer is swapped to the new manifest. A crash at
//! any boundary therefore leaves either the old snapshot fully intact or
//! the new one fully published; half-written garbage is unreachable and
//! later removed by compaction. Every read verifies its frame, so a file
//! torn or rotted at its final name is never used: a rotted `CURRENT`
//! leaves the manifests to be tried newest first, a rotted manifest or
//! blob falls back to the previous manifest, and with none valid the
//! store replays its lineage.
//!
//! **Crash injection** sits where the tier touches the file system: a
//! private seam numbers every call, and the one a [`FaultPlan`]'s
//! `crash_op` arms returns [`CoreError::InjectedCrash`] instead of running
//! (a stopped write leaves half its bytes) — what a `kill -9` leaves in a
//! live page cache. Tests crash a run at every call, reopen the directory
//! and assert recovery is bit-for-bit identical to a healthy run.

use std::collections::HashSet;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::{Mutex, PoisonError};

use dmac_cluster::json::{arr_of, JsonObj};
use dmac_cluster::jsonin::Json;
use dmac_cluster::transport::binfmt;
use dmac_cluster::transport::wire::Digest;
use dmac_cluster::{DistMatrix, FaultPlan, PartitionScheme};
use dmac_matrix::Block;

use crate::error::{CoreError, Result};

const FRAME_MAGIC: &[u8; 6] = b"DMBK2\n";
/// A frame is magic, payload length (`u64`), payload, digest (`u64`).
const FRAME_HEAD: usize = FRAME_MAGIC.len() + 8;
const DIST_MAGIC: &[u8; 6] = b"DMDM2\n";
/// Fixed head of a matrix payload: magic, four `u64` geometry words, scheme.
const DIST_HEAD: usize = 6 + 4 * 8 + 1;
/// The tile section's `w` of a tile every worker holds (Broadcast).
const REPLICATED: usize = u32::MAX as usize;
/// Per-worker stores are sized from the head before any tile is placed;
/// three orders of magnitude above the paper's 4–20 nodes is still cheap.
const MAX_WORKERS: usize = 1 << 16;

fn disk_err(ctx: &str, e: impl std::fmt::Display) -> CoreError {
    CoreError::Disk(format!("{ctx}: {e}"))
}

// ---------------------------------------------------------------------------
// DistMatrix <-> bytes codec
// ---------------------------------------------------------------------------

fn scheme_tag(s: PartitionScheme) -> u8 {
    match s {
        PartitionScheme::Row => 0,
        PartitionScheme::Col => 1,
        PartitionScheme::Hash => 2,
        PartitionScheme::Broadcast => 3,
    }
}

fn tag_scheme(t: u8) -> Result<PartitionScheme> {
    Ok(match t {
        0 => PartitionScheme::Row,
        1 => PartitionScheme::Col,
        2 => PartitionScheme::Hash,
        3 => PartitionScheme::Broadcast,
        other => return Err(CoreError::Disk(format!("unknown scheme tag {other}"))),
    })
}

/// Serialise a [`DistMatrix`] — geometry, scheme, and exact per-worker
/// placement — into a self-describing payload:
///
/// ```text
/// "DMDM2\n" ∥ rows, cols, block, workers (u64 LE) ∥ scheme u8      39 bytes
/// DMB2 tile section (count ∥ `binfmt::push_tile`s): tiles ascending (bi, bj),
///     `w` = the worker holding the tile, `u32::MAX` = replicated
/// ```
///
/// The tile bytes are the wire's: one codec, one set of bounds checks;
/// the payload is sized up front, so it is never regrown or copied.
pub fn encode_dist(m: &DistMatrix) -> Vec<u8> {
    if cfg!(test) {
        ENCODES.with(|n| n.set(n.get() + 1));
    }
    // Distinct logical tiles with their physical holder. Under
    // Broadcast every worker holds every tile, so one copy is written
    // with the "replicated" sentinel; otherwise each tile lives on
    // exactly one worker (validated placements).
    let broadcast = m.scheme() == PartitionScheme::Broadcast;
    let mut tiles: Vec<(usize, usize, usize, &Block)> = Vec::new();
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    for w in 0..m.workers() {
        for (&(bi, bj), tile) in m.worker_blocks(w) {
            if seen.insert((bi, bj)) {
                let holder = if broadcast { REPLICATED } else { w };
                tiles.push((holder, bi, bj, tile));
            }
        }
    }
    tiles.sort_unstable_by_key(|&(_, bi, bj, _)| (bi, bj));

    let body: usize = tiles.iter().map(|t| binfmt::tile_wire_len(t.3)).sum();
    let mut out = Vec::with_capacity(DIST_HEAD + 4 + body);
    out.extend_from_slice(DIST_MAGIC);
    for v in [m.rows(), m.cols(), m.block_size(), m.workers()] {
        out.extend_from_slice(&(v as u64).to_le_bytes());
    }
    out.push(scheme_tag(m.scheme()));
    out.extend_from_slice(&(tiles.len() as u32).to_le_bytes());
    for (holder, bi, bj, tile) in tiles {
        binfmt::push_tile(&mut out, holder, bi, bj, tile);
    }
    out
}

thread_local! {
    /// [`encode_dist`] calls by this thread, counted under `cfg!(test)`
    /// only: the store's unit tests read it to show what is not re-encoded.
    pub(crate) static ENCODES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Decode a payload produced by [`encode_dist`], validating the
/// reconstructed placement. Every failure is a typed [`CoreError::Disk`];
/// nothing is allocated from a count the remaining bytes cannot back
/// (`binfmt::decode_tiles`), and the head is bounded before the per-worker
/// stores are sized from it. A `DMDM1` payload (an older build's data dir)
/// fails the magic check like any foreign bytes — there is no second
/// decoder; the store's lineage replay is the way back.
pub fn decode_dist(payload: &[u8]) -> Result<DistMatrix> {
    if payload.len() < DIST_HEAD || &payload[..DIST_MAGIC.len()] != DIST_MAGIC {
        return Err(CoreError::Disk("matrix payload is not DMDM2".into()));
    }
    // The codec's own coordinates (`w`, `bi`, `bj`, tile dims) are u32:
    // a wider head word describes nothing the tiles could.
    let word = |i: usize| -> Result<usize> {
        let at = DIST_MAGIC.len() + 8 * i;
        let v = u64::from_le_bytes(payload[at..at + 8].try_into().expect("8-byte slice"));
        u32::try_from(v)
            .map(|v| v as usize)
            .map_err(|e| disk_err("matrix geometry", e))
    };
    let (rows, cols, block, workers) = (word(0)?, word(1)?, word(2)?, word(3)?);
    let scheme = tag_scheme(payload[DIST_HEAD - 1])?;
    if workers == 0 || workers > MAX_WORKERS {
        return Err(CoreError::Disk(format!(
            "implausible worker count {workers}"
        )));
    }
    let tiles =
        binfmt::decode_tiles(&payload[DIST_HEAD..]).map_err(|e| disk_err("matrix payload", e))?;
    let placed = tiles.into_iter().map(|(w, bi, bj, tile)| {
        let holder = (w != REPLICATED).then_some(w);
        (holder, bi, bj, Arc::new(tile))
    });
    DistMatrix::from_placed_tiles(rows, cols, block, scheme, workers, placed)
        .map_err(|e| disk_err("matrix placement", e))
}

// ---------------------------------------------------------------------------
// Manifests
// ---------------------------------------------------------------------------

/// One named matrix recorded in a snapshot manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Store name of the matrix.
    pub name: String,
    /// Content address of its blob (16 hex chars).
    pub hash: String,
    /// Payload byte length (re-verified against the blob on load).
    pub bytes: u64,
    /// Logical RAM bytes of the matrix (store accounting on recovery).
    pub logical_bytes: u64,
    /// Partition scheme, so `scheme_of` works without loading the blob
    /// (plan-cache keys depend on it).
    pub scheme: PartitionScheme,
}

/// A parsed snapshot manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Monotonic snapshot sequence number.
    pub seq: u64,
    /// `"spill"` or `"checkpoint"` (informational).
    pub kind: String,
    /// Phase (iteration) tag the snapshot was taken at.
    pub phase: u64,
    /// The snapshot's members.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// The manifest as the JSON document its file's frame carries:
    /// `{"seq", "kind", "phase", "entries": [{"name", "hash", "bytes",
    /// "logical_bytes", "scheme"}]}`, the scheme as its payload tag. JSON
    /// numbers hold integers exactly up to 2^53, far past any sequence
    /// number, phase or byte count.
    fn to_json(&self) -> String {
        let entries = arr_of(self.entries.iter().map(|e| {
            JsonObj::new()
                .str("name", &e.name)
                .str("hash", &e.hash)
                .u64("bytes", e.bytes)
                .u64("logical_bytes", e.logical_bytes)
                .u64("scheme", scheme_tag(e.scheme).into())
                .build()
        }));
        JsonObj::new()
            .u64("seq", self.seq)
            .str("kind", &self.kind)
            .u64("phase", self.phase)
            .raw("entries", &entries)
            .build()
    }

    /// Decode [`Manifest::to_json`]'s document. Every failure is a typed
    /// [`CoreError::Disk`]: bytes that are not UTF-8 or not JSON, a member
    /// missing or of the wrong type, an unknown scheme tag, or a hash that
    /// is not a blob name.
    fn from_json(payload: &[u8]) -> Result<Manifest> {
        fn member<'a, T>(
            j: &'a Json,
            key: &str,
            as_t: impl Fn(&'a Json) -> Option<T>,
        ) -> Result<T> {
            j.get(key).and_then(as_t).ok_or_else(|| {
                CoreError::Disk(format!("manifest member '{key}' is missing or mistyped"))
            })
        }
        let text = std::str::from_utf8(payload).map_err(|e| disk_err("manifest utf8", e))?;
        let doc = Json::parse(text).map_err(|e| disk_err("manifest", e))?;
        let entries = member(&doc, "entries", Json::as_arr)?.iter().map(|e| {
            // The hash becomes a file name under `blocks/`: exactly what
            // `put_blob` mints, or the entry could name any path.
            let hash = member(e, "hash", Json::as_str)?;
            let hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
            if hash.len() != 16 || !hash.bytes().all(hex) {
                return Err(CoreError::Disk(format!(
                    "manifest entry hash '{hash}' is not 16 lowercase hex digits"
                )));
            }
            let tag = member(e, "scheme", |j| u8::try_from(j.as_u64()?).ok())?;
            Ok(ManifestEntry {
                name: member(e, "name", Json::as_str)?.to_string(),
                hash: hash.to_string(),
                bytes: member(e, "bytes", Json::as_u64)?,
                logical_bytes: member(e, "logical_bytes", Json::as_u64)?,
                scheme: tag_scheme(tag)?,
            })
        });
        Ok(Manifest {
            seq: member(&doc, "seq", Json::as_u64)?,
            kind: member(&doc, "kind", Json::as_str)?.to_string(),
            phase: member(&doc, "phase", Json::as_u64)?,
            entries: entries.collect::<Result<_>>()?,
        })
    }
}

// ---------------------------------------------------------------------------
// The I/O seam
// ---------------------------------------------------------------------------

/// The kind of a file-system call the tier makes, named by
/// [`CoreError::InjectedCrash`]: make a tier directory; create, write (one
/// part), sync or rename a temp file; sync a directory; read a file; list
/// a directory; read a file's metadata; remove a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    MakeDir,
    Create,
    Write,
    Sync,
    Rename,
    SyncDir,
    Read,
    List,
    Metadata,
    Remove,
}

/// Every file-system call of a [`DiskTier`], numbered from when it was
/// opened or last armed: `(next call, armed call)`. The armed call is not
/// made — it returns [`CoreError::InjectedCrash`] and disarms, so later
/// calls run. Any other call hands its `io::Result` back inside `Ok`, for
/// its site to tolerate or report as that site always has.
#[derive(Debug, Default)]
struct Io(Mutex<(u64, Option<u64>)>);

impl Io {
    fn call<T>(
        &self,
        kind: IoKind,
        path: &Path,
        f: impl FnOnce() -> io::Result<T>,
    ) -> Result<io::Result<T>> {
        let mut g = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let op = g.0;
        g.0 += 1;
        if g.1.take_if(|at| *at == op).is_some() {
            return Err(CoreError::InjectedCrash {
                op,
                kind,
                path: path.to_path_buf(),
            });
        }
        drop(g);
        Ok(f())
    }

    fn make_dir(&self, dir: &Path) -> Result<io::Result<()>> {
        self.call(IoKind::MakeDir, dir, || std::fs::create_dir_all(dir))
    }

    fn create(&self, path: &Path) -> Result<io::Result<std::fs::File>> {
        self.call(IoKind::Create, path, || std::fs::File::create(path))
    }

    /// A stopped write leaves the first half of `bytes` in `file`.
    fn write(&self, file: &mut std::fs::File, path: &Path, bytes: &[u8]) -> Result<io::Result<()>> {
        let done = self.call(IoKind::Write, path, || file.write_all(bytes));
        if done.is_err() {
            let _ = file.write_all(&bytes[..bytes.len() / 2]);
        }
        done
    }

    fn sync(&self, file: &std::fs::File, path: &Path) -> Result<io::Result<()>> {
        self.call(IoKind::Sync, path, || file.sync_all())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<io::Result<()>> {
        self.call(IoKind::Rename, to, || std::fs::rename(from, to))
    }

    fn sync_dir(&self, dir: &Path) -> Result<io::Result<()>> {
        self.call(IoKind::SyncDir, dir, || {
            std::fs::File::open(dir).and_then(|d| d.sync_all())
        })
    }

    fn read(&self, path: &Path) -> Result<io::Result<Vec<u8>>> {
        self.call(IoKind::Read, path, || std::fs::read(path))
    }

    /// The paths in `dir`; an entry that cannot be read is skipped.
    fn list(&self, dir: &Path) -> Result<io::Result<Vec<PathBuf>>> {
        self.call(IoKind::List, dir, || {
            Ok(std::fs::read_dir(dir)?
                .flatten()
                .map(|e| e.path())
                .collect())
        })
    }

    fn metadata(&self, path: &Path) -> Result<io::Result<std::fs::Metadata>> {
        self.call(IoKind::Metadata, path, || std::fs::metadata(path))
    }

    fn remove(&self, path: &Path) -> Result<io::Result<()>> {
        self.call(IoKind::Remove, path, || std::fs::remove_file(path))
    }
}

/// A call whose site reports its failure: as [`CoreError::Disk`] with
/// `ctx`, or as the injected crash it was.
fn reported<T>(call: Result<io::Result<T>>, ctx: &str) -> Result<T> {
    call?.map_err(|e| disk_err(ctx, e))
}

/// A failure its site tolerates becomes `None`; an injected crash still
/// propagates — the process model died there.
pub(crate) fn tolerate<T>(r: Result<T>) -> Result<Option<T>> {
    match r {
        Err(e @ CoreError::InjectedCrash { .. }) => Err(e),
        r => Ok(r.ok()),
    }
}

// ---------------------------------------------------------------------------
// The tier
// ---------------------------------------------------------------------------

/// Outcome of a [`DiskTier::compact`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Unreferenced blob files deleted.
    pub removed_blobs: usize,
    /// Superseded manifest files deleted.
    pub removed_manifests: usize,
}

/// Handle to one durable data directory. Cheap to share behind the
/// store's mutex; all methods take `&self`.
#[derive(Debug)]
pub struct DiskTier {
    root: PathBuf,
    io: Io,
}

impl DiskTier {
    /// Open (creating if needed) a data directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<DiskTier> {
        let (root, io) = (dir.as_ref().to_path_buf(), Io::default());
        for sub in ["blocks", "plans"] {
            reported(io.make_dir(&root.join(sub)), &format!("create {sub} dir"))?;
        }
        Ok(DiskTier { root, io })
    }

    /// The data directory this tier writes into.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Arm the I/O seam from a [`FaultPlan`]: restart the call count at 0
    /// and crash at call `crash_op` (one-shot, like PR 1's stage kill).
    pub fn arm_crashes(&self, plan: &FaultPlan) {
        *self.io.0.lock().unwrap_or_else(PoisonError::into_inner) = (0, plan.crash_op);
    }

    /// File-system calls made since the tier was opened or last armed.
    pub fn ops(&self) -> u64 {
        self.io.0.lock().unwrap_or_else(PoisonError::into_inner).0
    }

    fn blob_path(&self, hash: &str) -> PathBuf {
        self.root.join("blocks").join(format!("{hash}.blk"))
    }

    /// Write `payload`, whose [`Digest`] is `sum`, as one frame at `path`
    /// so that a crash leaves the old file or the new one: a synced temp
    /// file renamed into place, then the parent directory synced, so the
    /// rename itself survives a power loss. The frame is written around
    /// the payload, not copied with it.
    fn write_frame(&self, path: &Path, payload: &[u8], sum: u64) -> Result<()> {
        let len = (payload.len() as u64).to_le_bytes();
        let tmp = path.with_extension("tmp");
        {
            let mut f = reported(self.io.create(&tmp), "create temp file")?;
            for part in [FRAME_MAGIC, &len[..], payload, &sum.to_le_bytes()] {
                reported(self.io.write(&mut f, &tmp, part), "write temp file")?;
            }
            reported(self.io.sync(&f, &tmp), "sync temp file")?;
        }
        reported(self.io.rename(&tmp, path), "rename into place")?;
        let dir = path.parent().unwrap_or_else(|| Path::new("."));
        reported(self.io.sync_dir(dir), "sync directory")
    }

    /// Read the file at `path` whole and verify its frame: magic, the
    /// payload length the head states against the file's, and the digest
    /// trailer. The tier's one read of the disk.
    fn read_frame(&self, path: &Path) -> Result<Frame> {
        let framed = reported(self.io.read(path), "read file")?;
        if framed.len() < FRAME_HEAD + 8 || &framed[..FRAME_MAGIC.len()] != FRAME_MAGIC {
            return Err(CoreError::Disk("frame magic missing or file torn".into()));
        }
        let len = u64::from_le_bytes(
            framed[FRAME_MAGIC.len()..FRAME_HEAD]
                .try_into()
                .expect("8-byte length"),
        );
        let held = framed.len() - FRAME_HEAD - 8;
        if len != held as u64 {
            return Err(CoreError::Disk(format!(
                "frame truncated: head says {len} payload bytes, file holds {held}"
            )));
        }
        let frame = Frame(framed);
        if Digest::of(frame.payload()) != frame.sum() {
            return Err(CoreError::Disk("frame checksum mismatch".into()));
        }
        Ok(frame)
    }

    /// Make `payload` durable as a content-addressed blob; returns its hash
    /// and whether this call wrote it. One digest pass names the file and
    /// fills the trailer. An intact copy at that name (read only when a
    /// file of the framed length exists) is reused, a torn or rotted one
    /// replaced.
    pub fn put_blob(&self, payload: &[u8]) -> Result<(String, bool)> {
        let sum = Digest::of(payload);
        let hash = format!("{sum:016x}");
        let path = self.blob_path(&hash);
        let framed_len = FRAME_HEAD + payload.len() + 8;
        let same_len = self
            .io
            .metadata(&path)?
            .is_ok_and(|md| md.len() == framed_len as u64);
        if same_len && self.verify_blob(&hash, payload.len() as u64)? {
            return Ok((hash, false));
        }
        self.write_frame(&path, payload, sum)?;
        Ok((hash, true))
    }

    /// Read blob `hash`'s verified frame: its digest must be the name (an
    /// intact frame under another blob's name is that other blob), and its
    /// payload `expect_len` bytes when given.
    fn read_blob(&self, hash: &str, expect_len: Option<u64>) -> Result<Frame> {
        let frame = self.read_frame(&self.blob_path(hash))?;
        let len = frame.payload().len() as u64;
        if format!("{:016x}", frame.sum()) != hash {
            return Err(CoreError::Disk(format!(
                "blob {hash} holds the payload of blob {:016x}",
                frame.sum()
            )));
        }
        match expect_len {
            Some(expect) if expect != len => Err(CoreError::Disk(format!(
                "blob payload is {len} bytes, manifest says {expect}"
            ))),
            _ => Ok(frame),
        }
    }

    /// Read and verify a matrix blob, decoding from the file buffer.
    pub fn get_dist(&self, hash: &str) -> Result<DistMatrix> {
        decode_dist(self.read_blob(hash, None)?.payload())
    }

    /// Does `hash` exist on disk with an intact frame of `bytes` payload?
    /// A full read-back (length + checksum), never a `stat`: the store
    /// learns of rot while it still has the RAM copy to rewrite from.
    /// `Err` only for an injected crash.
    pub fn verify_blob(&self, hash: &str, bytes: u64) -> Result<bool> {
        Ok(tolerate(self.read_blob(hash, Some(bytes)))?.is_some())
    }

    fn manifest_name(seq: u64) -> String {
        format!("manifest-{seq:06}.txt")
    }

    /// The sequence number a manifest file name stands for. A manifest is
    /// only ever opened under the name [`Self::manifest_name`] rebuilds.
    fn manifest_seq(name: &str) -> Option<u64> {
        name.strip_prefix("manifest-")?
            .strip_suffix(".txt")?
            .parse()
            .ok()
    }

    /// Sequence numbers of the manifests in the root, ascending (none when
    /// it cannot be listed). `Err` only for an injected crash.
    fn manifest_seqs(&self) -> Result<Vec<u64>> {
        let listed = self.io.list(&self.root)?.unwrap_or_default();
        let mut seqs: Vec<u64> = listed
            .iter()
            .filter_map(|p| Self::manifest_seq(p.file_name()?.to_str()?))
            .collect();
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Publish a snapshot: write `manifest-<seq>.txt`, then swap
    /// `CURRENT` to it. Returns the new sequence number.
    pub fn publish(&self, kind: &str, phase: u64, entries: Vec<ManifestEntry>) -> Result<u64> {
        let seq = self.manifest_seqs()?.last().copied().unwrap_or(0) + 1;
        let manifest = Manifest {
            seq,
            kind: kind.to_string(),
            phase,
            entries,
        };
        let body = manifest.to_json();
        let name = Self::manifest_name(seq);
        let path = self.root.join(&name);
        self.write_frame(&path, body.as_bytes(), Digest::of(body.as_bytes()))?;
        let current = self.root.join("CURRENT");
        self.write_frame(&current, name.as_bytes(), Digest::of(name.as_bytes()))?;
        Ok(seq)
    }

    /// Manifest `seq`: a verified frame whose document says it is `seq`.
    fn read_manifest(&self, seq: u64) -> Result<Manifest> {
        let frame = self.read_frame(&self.root.join(Self::manifest_name(seq)))?;
        let m = Manifest::from_json(frame.payload())?;
        if m.seq != seq {
            return Err(CoreError::Disk(format!(
                "manifest {seq} says it is manifest {}",
                m.seq
            )));
        }
        Ok(m)
    }

    /// Manifest `seq`, if it is *usable*: the file itself verifies and
    /// decodes, and every blob it references verifies (exists, intact
    /// frame, length match).
    fn usable_manifest(&self, seq: u64) -> Result<Option<Manifest>> {
        let Some(m) = tolerate(self.read_manifest(seq))? else {
            return Ok(None);
        };
        for e in &m.entries {
            if !self.verify_blob(&e.hash, e.bytes)? {
                return Ok(None);
            }
        }
        Ok(Some(m))
    }

    /// Load the latest fully-valid snapshot: first the one `CURRENT`
    /// names, then the others by descending sequence — all of them when
    /// `CURRENT` does not verify. A torn or corrupt candidate (a frame
    /// that fails anywhere in its closure) is skipped — paranoid recovery
    /// never trusts unverified bytes. `Ok(None)` means no usable snapshot
    /// exists (fall back to lineage).
    pub fn load_latest(&self) -> Result<Option<Manifest>> {
        let current = tolerate(self.read_frame(&self.root.join("CURRENT")))?;
        let named =
            current.and_then(|f| Self::manifest_seq(std::str::from_utf8(f.payload()).ok()?));
        if let Some(seq) = named {
            if let Some(m) = self.usable_manifest(seq)? {
                return Ok(Some(m));
            }
        }
        for seq in self.manifest_seqs()?.into_iter().rev() {
            if Some(seq) != named {
                if let Some(m) = self.usable_manifest(seq)? {
                    return Ok(Some(m));
                }
            }
        }
        Ok(None)
    }

    /// Delete unreferenced blob files and manifests older than
    /// `keep_from_seq`. A blob is *referenced* when any surviving
    /// manifest (seq ≥ `keep_from_seq`) that verifies lists it, or when
    /// the caller names it in `extra_referenced` (live spilled entries not
    /// yet in a snapshot). Safe at any point: only unreachable garbage is
    /// touched, so a crash mid-compaction merely leaves some garbage for
    /// the next pass.
    pub fn compact(
        &self,
        extra_referenced: &HashSet<String>,
        keep_from_seq: u64,
    ) -> Result<CompactionReport> {
        let mut referenced = extra_referenced.clone();
        for seq in self.manifest_seqs()? {
            if seq >= keep_from_seq {
                if let Some(m) = tolerate(self.read_manifest(seq))? {
                    referenced.extend(m.entries.into_iter().map(|e| e.hash));
                }
            }
        }
        let mut report = CompactionReport::default();
        let mut garbage = self.io.list(&self.root.join("blocks"))?.unwrap_or_default();
        garbage.retain(|p| {
            let name = p.file_name().and_then(|n| n.to_str());
            let hash = name.and_then(|n| n.strip_suffix(".blk"));
            !hash.is_some_and(|h| referenced.contains(h))
        });
        garbage.sort();
        for path in garbage {
            if self.io.remove(&path)?.is_ok() {
                report.removed_blobs += 1;
            }
        }
        for seq in self.manifest_seqs()? {
            if seq < keep_from_seq {
                let path = self.root.join(Self::manifest_name(seq));
                if self.io.remove(&path)?.is_ok() {
                    report.removed_manifests += 1;
                }
            }
        }
        Ok(report)
    }

    // -- plan-cache persistence (dmac-served restart warm-up) ------------

    /// Persist a submitted script so a restarted server can re-plan it
    /// (the plan cache is recovered by *re-preparing*, not by
    /// serialising plans — planning is deterministic).
    pub fn put_plan(&self, fingerprint: u64, script: &str) -> Result<()> {
        let path = self
            .root
            .join("plans")
            .join(format!("{fingerprint:016x}.dml"));
        self.write_frame(&path, script.as_bytes(), Digest::of(script.as_bytes()))
    }

    /// Every intact persisted script, sorted by file name (deterministic
    /// warm-up order). Corrupt or unreadable files are skipped, not fatal;
    /// `Err` only for an injected crash.
    pub fn list_plans(&self) -> Result<Vec<String>> {
        let mut files = self.io.list(&self.root.join("plans"))?.unwrap_or_default();
        files.retain(|p| p.extension().is_some_and(|e| e == "dml"));
        files.sort();
        let mut scripts = Vec::new();
        for path in files {
            let frame = tolerate(self.read_frame(&path))?;
            scripts.extend(frame.and_then(|f| String::from_utf8(f.payload().to_vec()).ok()));
        }
        Ok(scripts)
    }
}

/// A file read back whole whose frame verified; the payload is borrowed
/// from it (a blob decodes in place), never copied out.
struct Frame(Vec<u8>);

impl Frame {
    fn payload(&self) -> &[u8] {
        &self.0[FRAME_HEAD..self.0.len() - 8]
    }

    /// The digest trailer.
    fn sum(&self) -> u64 {
        let at = self.0.len() - 8;
        u64::from_le_bytes(self.0[at..].try_into().expect("8-byte trailer"))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dmac_matrix::BlockedMatrix;
    use std::fs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// An empty directory under the system temp dir, removed with all it
    /// holds when the guard drops: when the test that made it ends, passed
    /// or failed. Borrow it (`&dir`) to hand it to a tier or store; moved
    /// into one, it would be removed when that call returns.
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> TempDir {
            static SEQ: AtomicUsize = AtomicUsize::new(0);
            let n = SEQ.fetch_add(1, Ordering::SeqCst);
            let dir =
                std::env::temp_dir().join(format!("dmac-core-{}-{tag}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl std::ops::Deref for TempDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for TempDir {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// A tier over a fresh directory, and the guard that removes it.
    fn tier(tag: &str) -> (TempDir, DiskTier) {
        let dir = TempDir::new(tag);
        let tier = DiskTier::open(&dir).unwrap();
        (dir, tier)
    }

    impl DiskTier {
        /// A blob's verified payload as raw bytes (the store only ever
        /// reads matrices: [`DiskTier::get_dist`]).
        fn get_blob(&self, hash: &str) -> Result<Vec<u8>> {
            Ok(self.read_blob(hash, None)?.payload().to_vec())
        }
    }

    fn dense(rows: usize, cols: usize) -> BlockedMatrix {
        BlockedMatrix::from_fn(rows, cols, 4, |i, j| (i * cols + j) as f64 * 0.5 - 3.0).unwrap()
    }

    fn sparse(rows: usize, cols: usize) -> BlockedMatrix {
        BlockedMatrix::from_triplets(
            rows,
            cols,
            4,
            vec![(0, 0, 1.5), (rows - 1, cols - 1, -2.0), (1, 2, 0.25)],
        )
        .unwrap()
    }

    #[test]
    fn codec_roundtrips_every_scheme_exactly() {
        for scheme in [
            PartitionScheme::Row,
            PartitionScheme::Col,
            PartitionScheme::Hash,
            PartitionScheme::Broadcast,
        ] {
            for m in [dense(10, 6), sparse(10, 6)] {
                let d = DistMatrix::from_blocked(&m, scheme, 3);
                let back = decode_dist(&encode_dist(&d)).unwrap();
                assert_eq!(back.scheme(), scheme);
                assert_eq!(back.workers(), 3);
                // Bit-for-bit data and identical physical placement.
                assert_eq!(back.to_blocked().unwrap().to_dense(), m.to_dense());
                for w in 0..3 {
                    let mut a: Vec<_> = d.worker_blocks(w).keys().copied().collect();
                    let mut b: Vec<_> = back.worker_blocks(w).keys().copied().collect();
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "placement drifted on worker {w}");
                }
            }
        }
    }

    #[test]
    fn codec_rejects_corruption() {
        let d = DistMatrix::from_blocked(&dense(8, 8), PartitionScheme::Row, 2);
        let mut bytes = encode_dist(&d);
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(decode_dist(&bytes), Err(CoreError::Disk(_))));
        assert!(decode_dist(b"garbage").is_err());
        // An older build's payload is foreign bytes, not a second format.
        let mut old = encode_dist(&d);
        old[..6].copy_from_slice(b"DMDM1\n");
        assert!(matches!(decode_dist(&old), Err(CoreError::Disk(_))));
    }

    fn manifest_naming(entries: Vec<ManifestEntry>) -> Manifest {
        Manifest {
            seq: 1,
            kind: "checkpoint".into(),
            phase: 0,
            entries,
        }
    }

    fn entry(name: &str, hash: &str) -> ManifestEntry {
        ManifestEntry {
            name: name.into(),
            hash: hash.into(),
            bytes: 3,
            logical_bytes: 1,
            scheme: PartitionScheme::Row,
        }
    }

    #[test]
    fn manifest_hash_must_be_a_blob_name() {
        let decode = |hash: &str| {
            let doc = manifest_naming(vec![entry("m", hash)]).to_json();
            Manifest::from_json(doc.as_bytes())
        };
        assert!(decode("00000000deadbeef").is_ok());
        for bad in [
            "../../x",
            "../../../../etc/x",
            "00000000DEADBEEF",
            "deadbeef",
            "00000000deadbeef0",
            "0000000/deadbeef",
        ] {
            let err = decode(bad).unwrap_err();
            assert!(matches!(err, CoreError::Disk(_)), "{bad}: {err}");
        }
    }

    /// A store name is any string: the manifest's JSON carries it as one,
    /// so no character needs an escape of the tier's own.
    #[test]
    fn any_name_roundtrips_through_a_manifest() {
        let names = [
            "plain",
            "has space",
            "pct%20",
            "nl\nname",
            "tab\tname",
            "q\"uote\\",
            "é 😀",
        ];
        let m = manifest_naming(names.iter().map(|n| entry(n, "00000000deadbeef")).collect());
        assert_eq!(Manifest::from_json(m.to_json().as_bytes()).unwrap(), m);
    }

    /// Every way a manifest document can be malformed is a typed error.
    #[test]
    fn a_malformed_manifest_document_is_a_typed_error() {
        let good = manifest_naming(vec![entry("m", "00000000deadbeef")]).to_json();
        let mut cases: Vec<Vec<u8>> = vec![b"".to_vec(), b"\xff\xfe".to_vec(), b"[]".to_vec()];
        for (from, to) in [
            ("\"seq\":1", "\"seq\":-1"),
            ("\"seq\":1", "\"seq\":\"1\""),
            ("\"phase\":0", "\"phase\":0.5"),
            ("\"kind\":", "\"kinds\":"),
            ("\"scheme\":0", "\"scheme\":4"),
            ("\"scheme\":0", "\"scheme\":256"),
            ("\"bytes\":3", "\"bytes\":null"),
            ("\"entries\":[", "\"entries\":[1,"),
        ] {
            assert!(good.contains(from), "{from}");
            cases.push(good.replacen(from, to, 1).into_bytes());
        }
        cases.extend((0..good.len()).map(|cut| good.as_bytes()[..cut].to_vec()));
        for bytes in cases {
            let err = Manifest::from_json(&bytes).unwrap_err();
            assert!(matches!(err, CoreError::Disk(_)), "{bytes:?}: {err}");
        }
    }

    /// A blob file is its payload in the one frame, named by the payload's
    /// digest: the bytes every build since the word digest has written.
    #[test]
    fn a_blob_file_is_the_frame_around_its_payload() {
        let (_dir, tier) = tier("blob-bytes");
        let (hash, _) = tier.put_blob(b"hello world").unwrap();
        assert_eq!(hash, "056d66c2b2e1155d");
        let mut want = b"DMBK2\n\x0b\0\0\0\0\0\0\0hello world".to_vec();
        want.extend_from_slice(&Digest::of(b"hello world").to_le_bytes());
        assert_eq!(fs::read(tier.blob_path(&hash)).unwrap(), want);
    }

    #[test]
    fn blob_roundtrip_and_content_addressing() {
        let (_dir, tier) = tier("blob");
        let (h1, wrote1) = tier.put_blob(b"hello world").unwrap();
        let (h2, wrote2) = tier.put_blob(b"hello world").unwrap();
        assert_eq!(h1, h2, "same content, same address");
        assert!(wrote1 && !wrote2, "the second put finds the first's file");
        assert_eq!(tier.get_blob(&h1).unwrap(), b"hello world");
        assert!(tier.verify_blob(&h1, 11).unwrap());
        assert!(
            !tier.verify_blob(&h1, 12).unwrap(),
            "length mismatch detected"
        );
        assert!(tier.get_blob("doesnotexist").is_err());
    }

    /// An intact frame under another blob's name — a misdirected write,
    /// or a copy — is not that blob: a payload is only ever read under its
    /// own digest.
    #[test]
    fn a_blob_under_another_blob_s_name_is_refused() {
        let (_dir, tier) = tier("misnamed");
        let (a, _) = tier.put_blob(b"payload a").unwrap();
        let (b, _) = tier.put_blob(b"payload b").unwrap();
        fs::copy(tier.blob_path(&a), tier.blob_path(&b)).unwrap();
        assert!(!tier.verify_blob(&b, 9).unwrap());
        let err = tier.get_blob(&b).unwrap_err();
        assert!(
            err.to_string().contains("holds the payload of blob"),
            "{err}"
        );
        // The store's rewrite heals it, like any torn file at a final name.
        assert_eq!(tier.put_blob(b"payload b").unwrap(), (b.clone(), true));
        assert_eq!(tier.get_blob(&b).unwrap(), b"payload b");
    }

    #[test]
    fn torn_and_corrupt_blobs_are_detected() {
        let (_dir, tier) = tier("torn");
        let (h, _) = tier.put_blob(b"payload-bytes").unwrap();
        let path = tier.blob_path(&h);
        // Truncate.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 4]).unwrap();
        assert!(matches!(tier.get_blob(&h), Err(CoreError::Disk(_))));
        // Flip a payload byte (length intact, checksum wrong).
        let mut flipped = full.clone();
        flipped[FRAME_MAGIC.len() + 8 + 2] ^= 0xFF;
        fs::write(&path, &flipped).unwrap();
        let err = tier.get_blob(&h).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn publish_swaps_current_and_survives_reload() {
        let (_dir, tier) = tier("pub");
        let (h, _) = tier.put_blob(b"abc").unwrap();
        let entry = ManifestEntry {
            name: "weird name %\n".into(),
            hash: h.clone(),
            bytes: 3,
            logical_bytes: 100,
            scheme: PartitionScheme::Row,
        };
        let seq1 = tier.publish("checkpoint", 1, vec![entry.clone()]).unwrap();
        let seq2 = tier.publish("checkpoint", 2, vec![entry.clone()]).unwrap();
        assert!(seq2 > seq1);
        let m = tier.load_latest().unwrap().unwrap();
        assert_eq!(m.seq, seq2);
        assert_eq!(m.phase, 2);
        assert_eq!(m.entries, vec![entry]);
    }

    #[test]
    fn corrupt_current_falls_back_to_prior_manifest() {
        let (_dir, tier) = tier("fallback");
        let (h, _) = tier.put_blob(b"abc").unwrap();
        let entry = |phase: u64| ManifestEntry {
            name: format!("m{phase}"),
            hash: h.clone(),
            bytes: 3,
            logical_bytes: 1,
            scheme: PartitionScheme::Hash,
        };
        tier.publish("checkpoint", 1, vec![entry(1)]).unwrap();
        let seq2 = tier.publish("checkpoint", 2, vec![entry(2)]).unwrap();
        // Tear the newest manifest: recovery must fall back to seq 1.
        let path = tier.root().join(DiskTier::manifest_name(seq2));
        let body = fs::read(&path).unwrap();
        fs::write(&path, &body[..body.len() / 2]).unwrap();
        let m = tier.load_latest().unwrap().unwrap();
        assert_eq!(m.phase, 1, "fell back to the last valid snapshot");
        // With every manifest gone, recovery reports "nothing usable".
        fs::remove_file(tier.root().join(DiskTier::manifest_name(1))).unwrap();
        fs::remove_file(&path).unwrap();
        assert!(tier.load_latest().unwrap().is_none());
    }

    /// Snapshots of phases 1, 2 and 3 (sequence numbers 1, 2, 3), each
    /// naming a blob of its own; returns the blobs' hashes.
    fn three_snapshots(tier: &DiskTier) -> Vec<String> {
        (1..=3u64)
            .map(|phase| {
                let payload = format!("payload {phase}");
                let (hash, _) = tier.put_blob(payload.as_bytes()).unwrap();
                let mut e = entry("m", &hash);
                e.bytes = payload.len() as u64;
                assert_eq!(tier.publish("checkpoint", phase, vec![e]).unwrap(), phase);
                hash
            })
            .collect()
    }

    fn latest_phase(tier: &DiskTier) -> Option<u64> {
        tier.load_latest().unwrap().map(|m| m.phase)
    }

    /// A rotted `CURRENT` costs the pointer and nothing else: the manifests
    /// are tried newest first, and the newest, intact, comes back — under
    /// a flipped bit anywhere in the file, a truncation at any length, or
    /// no file at all.
    #[test]
    fn a_rotted_current_still_recovers_the_newest_intact_snapshot() {
        let (_dir, tier) = tier("rotted-current");
        three_snapshots(&tier);
        let path = tier.root().join("CURRENT");
        let healthy = fs::read(&path).unwrap();
        for at in 0..healthy.len() {
            let mut rotted = healthy.clone();
            rotted[at] ^= 1 << (at % 8);
            fs::write(&path, rotted).unwrap();
            assert_eq!(
                latest_phase(&tier),
                Some(3),
                "bit {} flipped",
                at * 8 + at % 8
            );
        }
        for cut in 0..healthy.len() {
            fs::write(&path, &healthy[..cut]).unwrap();
            assert_eq!(latest_phase(&tier), Some(3), "cut at {cut}");
        }
        fs::remove_file(&path).unwrap();
        assert_eq!(latest_phase(&tier), Some(3));
    }

    /// A manifest whose bytes changed is never used, whichever path reads
    /// it: `load_latest` through the `CURRENT` that names it, `load_latest`
    /// searching newest first with `CURRENT` gone, and `compact`, which
    /// keeps no blob on its word. The change is one bit: `phase 3` → `7`.
    #[test]
    fn a_manifest_whose_bytes_changed_is_never_used() {
        let (_dir, tier) = tier("rotted-manifest");
        let blobs = three_snapshots(&tier);
        let path = tier.root().join(DiskTier::manifest_name(3));
        let mut bytes = fs::read(&path).unwrap();
        let phase = bytes.windows(5).position(|w| w == b"phase").unwrap();
        let three = phase + bytes[phase..].iter().position(|&b| b == b'3').unwrap();
        bytes[three] ^= b'3' ^ b'7';
        fs::write(&path, bytes).unwrap();

        assert_eq!(latest_phase(&tier), Some(2), "through CURRENT");
        fs::remove_file(tier.root().join("CURRENT")).unwrap();
        assert_eq!(latest_phase(&tier), Some(2), "newest first");
        let report = tier.compact(&HashSet::new(), 2).unwrap();
        assert_eq!(report.removed_manifests, 1);
        assert!(
            !tier.verify_blob(&blobs[2], 9).unwrap(),
            "only manifest 3 named it"
        );
        assert!(tier.verify_blob(&blobs[1], 9).unwrap());
        assert_eq!(latest_phase(&tier), Some(2));
    }

    /// A frame that verifies is not enough: a manifest copied or renamed to
    /// another sequence number's file says which one it is, and is refused.
    #[test]
    fn a_manifest_under_another_number_is_refused() {
        let (_dir, tier) = tier("renamed-manifest");
        three_snapshots(&tier);
        let root = tier.root();
        let (three, four) = (DiskTier::manifest_name(3), DiskTier::manifest_name(4));
        fs::copy(root.join(three), root.join(four)).unwrap();
        assert_eq!(tier.read_manifest(3).unwrap().seq, 3);
        let err = tier.read_manifest(4).unwrap_err();
        assert!(err.to_string().contains("says it is manifest 3"), "{err}");
        fs::remove_file(root.join("CURRENT")).unwrap();
        assert_eq!(tier.load_latest().unwrap().map(|m| m.seq), Some(3));
    }

    #[test]
    fn missing_blob_invalidates_the_snapshot() {
        let (_dir, tier) = tier("missing");
        let (h, _) = tier.put_blob(b"abc").unwrap();
        tier.publish(
            "checkpoint",
            1,
            vec![ManifestEntry {
                name: "m".into(),
                hash: h.clone(),
                bytes: 3,
                logical_bytes: 1,
                scheme: PartitionScheme::Row,
            }],
        )
        .unwrap();
        fs::remove_file(tier.blob_path(&h)).unwrap();
        assert!(tier.load_latest().unwrap().is_none());
    }

    #[test]
    fn compaction_removes_only_garbage() {
        let (_dir, tier) = tier("compact");
        let (keep, _) = tier.put_blob(b"keep me").unwrap();
        let (drop1, _) = tier.put_blob(b"garbage 1").unwrap();
        let (drop2, _) = tier.put_blob(b"garbage 2").unwrap();
        tier.publish("checkpoint", 1, vec![]).unwrap();
        tier.publish("checkpoint", 2, vec![]).unwrap();
        let seq3 = tier.publish("checkpoint", 3, vec![]).unwrap();
        let referenced: HashSet<String> = [keep.clone()].into();
        let report = tier.compact(&referenced, seq3 - 1).unwrap();
        assert_eq!(report.removed_blobs, 2);
        assert_eq!(report.removed_manifests, 1);
        assert!(tier.get_blob(&keep).is_ok());
        assert!(tier.get_blob(&drop1).is_err());
        assert!(tier.get_blob(&drop2).is_err());
        assert_eq!(tier.load_latest().unwrap().unwrap().seq, seq3);
    }

    /// The calls of one new blob's `put_blob`: a length probe, then the
    /// temp file's create, four writes (magic, length, payload, digest)
    /// and sync, the rename and the directory sync.
    const PUT_BLOB_CALLS: u64 = 9;

    #[test]
    fn crash_injector_is_deterministic_and_one_shot() {
        // Twice: the same plan crashes the same call.
        for _ in 0..2 {
            let (_dir, tier) = tier("crash");
            tier.arm_crashes(&FaultPlan::none());
            assert!(tier.put_blob(b"first").is_ok());
            assert_eq!(tier.ops(), PUT_BLOB_CALLS);
            // The second put's create: nothing of it reaches the disk.
            tier.arm_crashes(&FaultPlan::crash(1));
            let err = tier.put_blob(b"second").unwrap_err();
            let hash = format!("{:016x}", Digest::of(b"second"));
            let path = tier.blob_path(&hash).with_extension("tmp");
            let kind = IoKind::Create;
            assert_eq!(err, CoreError::InjectedCrash { op: 1, kind, path });
            // One-shot: the "restarted process" proceeds normally.
            assert!(tier.put_blob(b"second").is_ok());
        }
    }

    #[test]
    fn mid_blob_crash_leaves_a_detectable_torn_file() {
        let (_dir, tier) = tier("midblob");
        let payload = b"some payload that gets torn";
        // Calls 2, 3, 4: magic, length, payload — stop the payload's write.
        tier.arm_crashes(&FaultPlan::crash(4));
        let err = tier.put_blob(payload).unwrap_err();
        assert!(matches!(
            err,
            CoreError::InjectedCrash {
                op: 4,
                kind: IoKind::Write,
                ..
            }
        ));
        let hash = format!("{:016x}", Digest::of(payload));
        // The temp file holds the frame up to half the payload; the final
        // name does not exist, so the blob never verifies.
        let torn = fs::read(tier.blob_path(&hash).with_extension("tmp")).unwrap();
        assert_eq!(torn.len(), FRAME_HEAD + payload.len() / 2);
        assert!(!tier.blob_path(&hash).exists());
        assert!(tier.get_blob(&hash).is_err());
        // A rewrite (post-restart) heals it in place.
        tier.put_blob(payload).unwrap();
        assert!(tier.get_blob(&hash).is_ok());
    }

    #[test]
    fn plan_persistence_roundtrips_and_skips_corruption() {
        let (_dir, tier) = tier("plans");
        tier.put_plan(1, "A = random(A, 8, 8)\noutput(A)\n")
            .unwrap();
        tier.put_plan(2, "B = random(B, 4, 4)\noutput(B)\n")
            .unwrap();
        let scripts = tier.list_plans().unwrap();
        assert_eq!(scripts.len(), 2);
        assert!(scripts[0].contains("random"));
        // Corrupt one: it is skipped, the other survives.
        let path = tier.root().join("plans").join(format!("{:016x}.dml", 1u64));
        let mut framed = fs::read(&path).unwrap();
        let last = framed.len() - 9;
        framed[last] ^= 0x01;
        fs::write(&path, framed).unwrap();
        assert_eq!(tier.list_plans().unwrap().len(), 1);
    }

    /// A crash at each call of `put_plan` — adding a script, or replacing
    /// one — leaves `list_plans` the old set or the new, never a torn
    /// script; and `list_plans` itself crashed at any call reports it.
    #[test]
    fn a_crash_anywhere_in_put_plan_leaves_the_old_scripts_or_the_new() {
        let (old, new) = (
            "A = random(A, 8, 8)\noutput(A)\n",
            "B = random(B, 4, 4)\noutput(B)\n",
        );
        for (fp, after) in [(2, vec![old, new]), (1, vec![new])] {
            let mut calls = 0;
            loop {
                let (_dir, tier) = tier("plan-crash");
                tier.put_plan(1, old).unwrap();
                tier.arm_crashes(&FaultPlan::crash(calls));
                let Err(err) = tier.put_plan(fp, new) else {
                    break;
                };
                assert!(matches!(err, CoreError::InjectedCrash { op, .. } if op == calls));
                let listed = tier.list_plans().unwrap();
                assert!(
                    listed == [old] || listed == after,
                    "crash at {calls}: {listed:?}"
                );
                calls += 1;
            }
            // create, four writes (magic, length, script, digest), sync,
            // rename, directory sync
            assert_eq!(calls, 8);
            let (_dir, tier) = tier("plan-list");
            tier.put_plan(1, old).unwrap();
            tier.put_plan(fp, new).unwrap();
            for op in 0..=after.len() as u64 {
                tier.arm_crashes(&FaultPlan::crash(op));
                let err = tier.list_plans().unwrap_err();
                assert!(matches!(err, CoreError::InjectedCrash { .. }), "{err}");
            }
            assert_eq!(tier.list_plans().unwrap(), after);
        }
    }
}
