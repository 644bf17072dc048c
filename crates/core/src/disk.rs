//! The durable disk tier under [`crate::store::SharedStore`] (PR 6).
//!
//! Layout of a data directory:
//!
//! ```text
//! <root>/blocks/<digest:016x>.blk  content-addressed immutable blob files
//! <root>/manifest-<seq:06>.txt     snapshot manifests (append-only seq)
//! <root>/CURRENT                   "<manifest-file> <checksum:016x>"
//! <root>/plans/<fp:016x>.dml       persisted plan-cache scripts (serve)
//! ```
//!
//! **Blobs** hold one serialised [`DistMatrix`] each (geometry, scheme,
//! and the exact per-worker tile placement, so a reload reproduces the
//! physical layout bit-for-bit). A blob file is
//! `"DMBK2\n" ∥ payload_len ∥ payload ∥ digest(payload)` ([`Digest`])
//! and is named by the payload's own digest — content addressing, so identical
//! matrices across snapshots share one file and re-checkpointing an
//! unchanged matrix writes nothing. Only [`DiskTier::put_blob`] names a
//! payload (one hash pass: file name and trailer), and a file already at
//! that name is the blob only once its length and checksum read back —
//! a torn file at a final name is rewritten, never deduplicated against.
//!
//! **Crash consistency** rests on two rules: blobs and manifests are
//! written to a temp file and atomically renamed, and a snapshot only
//! becomes visible when the `CURRENT` pointer (itself temp+rename) is
//! swapped to the new manifest. A crash at any boundary therefore
//! leaves either the old snapshot fully intact or the new one fully
//! published; half-written garbage is unreachable and later removed by
//! compaction. Every read re-verifies length and checksum, so even a
//! file torn or rotted at its final name is detected and the reader falls
//! back to the previous manifest — or, with none valid, to lineage
//! replay.
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

use dmac_cluster::transport::binfmt;
use dmac_cluster::transport::wire::Digest;
use dmac_cluster::{DistMatrix, FaultPlan, PartitionScheme};
use dmac_matrix::Block;

use crate::error::{CoreError, Result};

const BLOB_MAGIC: &[u8; 6] = b"DMBK2\n";
/// A blob frame is magic, payload length (`u64`), payload, checksum (`u64`).
const BLOB_HEAD: usize = BLOB_MAGIC.len() + 8;
const DIST_MAGIC: &[u8; 6] = b"DMDM2\n";
/// Fixed head of a matrix payload: magic, four `u64` geometry words, scheme.
const DIST_HEAD: usize = 6 + 4 * 8 + 1;
/// The tile section's `w` of a tile every worker holds (Broadcast).
const REPLICATED: usize = u32::MAX as usize;
/// Per-worker stores are sized from the head before any tile is placed;
/// three orders of magnitude above the paper's 4–20 nodes is still cheap.
const MAX_WORKERS: usize = 1 << 16;
const MANIFEST_MAGIC: &str = "dmac-manifest v1";
const PLAN_MAGIC: &str = "dmac-plan v2";

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

fn escape_name(name: &str) -> String {
    let mut s = String::with_capacity(name.len());
    for ch in name.chars() {
        match ch {
            '%' => s.push_str("%25"),
            ' ' => s.push_str("%20"),
            '\n' => s.push_str("%0A"),
            '\r' => s.push_str("%0D"),
            '\t' => s.push_str("%09"),
            c => s.push(c),
        }
    }
    s
}

fn unescape_name(escaped: &str) -> Result<String> {
    let mut out = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(ch) = chars.next() {
        if ch != '%' {
            out.push(ch);
            continue;
        }
        let hi = chars.next();
        let lo = chars.next();
        let (Some(hi), Some(lo)) = (hi, lo) else {
            return Err(CoreError::Disk("truncated name escape".into()));
        };
        let byte = u8::from_str_radix(&format!("{hi}{lo}"), 16)
            .map_err(|e| disk_err("bad name escape", e))?;
        out.push(byte as char);
    }
    Ok(out)
}

fn render_manifest(m: &Manifest) -> String {
    let mut s = String::new();
    s.push_str(MANIFEST_MAGIC);
    s.push('\n');
    s.push_str(&format!("seq {}\n", m.seq));
    s.push_str(&format!("kind {}\n", m.kind));
    s.push_str(&format!("phase {}\n", m.phase));
    for e in &m.entries {
        s.push_str(&format!(
            "entry {} {} {} {} {}\n",
            escape_name(&e.name),
            e.hash,
            e.bytes,
            e.logical_bytes,
            e.scheme
        ));
    }
    s
}

fn parse_scheme(s: &str) -> Result<PartitionScheme> {
    for cand in [
        PartitionScheme::Row,
        PartitionScheme::Col,
        PartitionScheme::Hash,
        PartitionScheme::Broadcast,
    ] {
        if cand.to_string() == s {
            return Ok(cand);
        }
    }
    Err(CoreError::Disk(format!("unknown scheme '{s}'")))
}

fn parse_manifest(text: &str) -> Result<Manifest> {
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(CoreError::Disk("bad manifest header".into()));
    }
    let mut seq = None;
    let mut kind = None;
    let mut phase = None;
    let mut entries = Vec::new();
    for line in lines {
        let mut parts = line.split(' ');
        match parts.next() {
            Some("seq") => {
                seq = Some(
                    parts
                        .next()
                        .ok_or_else(|| CoreError::Disk("manifest seq missing".into()))?
                        .parse::<u64>()
                        .map_err(|e| disk_err("manifest seq", e))?,
                );
            }
            Some("kind") => kind = parts.next().map(str::to_string),
            Some("phase") => {
                phase = Some(
                    parts
                        .next()
                        .ok_or_else(|| CoreError::Disk("manifest phase missing".into()))?
                        .parse::<u64>()
                        .map_err(|e| disk_err("manifest phase", e))?,
                );
            }
            Some("entry") => {
                let fields: Vec<&str> = parts.collect();
                if fields.len() != 5 {
                    return Err(CoreError::Disk(format!(
                        "manifest entry has {} fields, want 5",
                        fields.len()
                    )));
                }
                // The hash becomes a file name under `blocks/`: exactly
                // what `put_blob` mints, or the entry could name any path.
                let hash = fields[1];
                let hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
                if hash.len() != 16 || !hash.bytes().all(hex) {
                    return Err(CoreError::Disk(format!(
                        "manifest entry hash '{hash}' is not 16 lowercase hex digits"
                    )));
                }
                entries.push(ManifestEntry {
                    name: unescape_name(fields[0])?,
                    hash: hash.to_string(),
                    bytes: fields[2].parse().map_err(|e| disk_err("entry bytes", e))?,
                    logical_bytes: fields[3]
                        .parse()
                        .map_err(|e| disk_err("entry logical bytes", e))?,
                    scheme: parse_scheme(fields[4])?,
                });
            }
            Some("") | None => {}
            Some(other) => {
                return Err(CoreError::Disk(format!("unknown manifest line '{other}'")));
            }
        }
    }
    Ok(Manifest {
        seq: seq.ok_or_else(|| CoreError::Disk("manifest missing seq".into()))?,
        kind: kind.ok_or_else(|| CoreError::Disk("manifest missing kind".into()))?,
        phase: phase.ok_or_else(|| CoreError::Disk("manifest missing phase".into()))?,
        entries,
    })
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

    /// Write the concatenated `parts` under `path` so that a crash leaves
    /// the old file or the new one: a synced temp file renamed into place,
    /// then the parent directory synced, so the rename itself survives a
    /// power loss.
    fn write_atomic(&self, path: &Path, parts: &[&[u8]]) -> Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = reported(self.io.create(&tmp), "create temp file")?;
            for part in parts {
                reported(self.io.write(&mut f, &tmp, part), "write temp file")?;
            }
            reported(self.io.sync(&f, &tmp), "sync temp file")?;
        }
        reported(self.io.rename(&tmp, path), "rename into place")?;
        let dir = path.parent().unwrap_or_else(|| Path::new("."));
        reported(self.io.sync_dir(dir), "sync directory")
    }

    /// Make `payload` durable as a content-addressed blob; returns its hash
    /// and whether this call wrote it. One digest pass names the file and
    /// fills the trailer, and the frame is written around the payload, not
    /// copied with it. An intact copy at that name (read only when a
    /// file of the framed length exists) is reused, a torn or rotted one
    /// replaced.
    pub fn put_blob(&self, payload: &[u8]) -> Result<(String, bool)> {
        let sum = Digest::of(payload);
        let hash = format!("{sum:016x}");
        let path = self.blob_path(&hash);
        let framed_len = BLOB_HEAD + payload.len() + 8;
        let same_len = self
            .io
            .metadata(&path)?
            .is_ok_and(|md| md.len() == framed_len as u64);
        if same_len && self.verify_blob(&hash, payload.len() as u64)? {
            return Ok((hash, false));
        }
        let (len, sum) = ((payload.len() as u64).to_le_bytes(), sum.to_le_bytes());
        self.write_atomic(&path, &[BLOB_MAGIC, &len, payload, &sum])?;
        Ok((hash, true))
    }

    /// Read blob `hash` and verify magic, length (header against file, and
    /// `expect_len` when given) and checksum. Returns the verified frame,
    /// for the caller to borrow the payload from: `BLOB_HEAD..len - 8`.
    fn read_blob_file(&self, hash: &str, expect_len: Option<u64>) -> Result<Vec<u8>> {
        let framed = reported(self.io.read(&self.blob_path(hash)), "read blob")?;
        if framed.len() < BLOB_HEAD + 8 || &framed[..BLOB_MAGIC.len()] != BLOB_MAGIC {
            return Err(CoreError::Disk("blob magic missing or file torn".into()));
        }
        let len = u64::from_le_bytes(framed[6..BLOB_HEAD].try_into().unwrap()) as usize;
        let body_end = BLOB_HEAD
            .checked_add(len)
            .ok_or_else(|| CoreError::Disk("blob length overflow".into()))?;
        if framed.len() != body_end + 8 {
            return Err(CoreError::Disk(format!(
                "blob truncated: header says {len} payload bytes, file holds {}",
                framed.len().saturating_sub(BLOB_HEAD + 8)
            )));
        }
        let payload = &framed[BLOB_HEAD..body_end];
        let sum = u64::from_le_bytes(framed[body_end..].try_into().unwrap());
        if Digest::of(payload) != sum {
            return Err(CoreError::Disk("blob checksum mismatch".into()));
        }
        if let Some(expect) = expect_len {
            if payload.len() as u64 != expect {
                return Err(CoreError::Disk(format!(
                    "blob payload is {} bytes, manifest says {expect}",
                    payload.len()
                )));
            }
        }
        Ok(framed)
    }

    /// Read and verify a matrix blob, decoding from the file buffer.
    pub fn get_dist(&self, hash: &str) -> Result<DistMatrix> {
        let framed = self.read_blob_file(hash, None)?;
        decode_dist(&framed[BLOB_HEAD..framed.len() - 8])
    }

    /// Does `hash` exist on disk with an intact frame of `bytes` payload?
    /// A full read-back (length + checksum), never a `stat`: the store
    /// learns of rot while it still has the RAM copy to rewrite from.
    /// `Err` only for an injected crash.
    pub fn verify_blob(&self, hash: &str, bytes: u64) -> Result<bool> {
        Ok(tolerate(self.read_blob_file(hash, Some(bytes)))?.is_some())
    }

    fn manifest_name(seq: u64) -> String {
        format!("manifest-{seq:06}.txt")
    }

    /// Sequence numbers of the manifests in the root, ascending (none when
    /// it cannot be listed). `Err` only for an injected crash.
    fn manifest_seqs(&self) -> Result<Vec<u64>> {
        let listed = self.io.list(&self.root)?.unwrap_or_default();
        let mut seqs: Vec<u64> = listed
            .iter()
            .filter_map(|p| {
                let name = p.file_name()?.to_str()?;
                name.strip_prefix("manifest-")?
                    .strip_suffix(".txt")?
                    .parse()
                    .ok()
            })
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
        let body = render_manifest(&manifest);
        let path = self.root.join(Self::manifest_name(seq));
        self.write_atomic(&path, &[body.as_bytes()])?;
        let current = format!(
            "{} {:016x}\n",
            Self::manifest_name(seq),
            Digest::of(body.as_bytes())
        );
        self.write_atomic(&self.root.join("CURRENT"), &[current.as_bytes()])?;
        Ok(seq)
    }

    fn read_manifest_file(&self, name: &str, expect_sum: Option<u64>) -> Result<Manifest> {
        let body = reported(self.io.read(&self.root.join(name)), "read manifest")?;
        if let Some(sum) = expect_sum {
            if Digest::of(&body) != sum {
                return Err(CoreError::Disk(format!(
                    "manifest {name} checksum mismatch"
                )));
            }
        }
        let text = String::from_utf8(body).map_err(|e| disk_err("manifest utf8", e))?;
        parse_manifest(&text)
    }

    /// Manifest `name`, if it is *usable*: the file itself reads and
    /// parses (and matches `expect_sum`), and every blob it references
    /// verifies (exists, intact frame, length match).
    fn usable_manifest(&self, name: &str, expect_sum: Option<u64>) -> Result<Option<Manifest>> {
        let Some(m) = tolerate(self.read_manifest_file(name, expect_sum))? else {
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
    /// points at, then earlier manifests by descending sequence. A torn
    /// or corrupt candidate (bad checksum anywhere in its closure) is
    /// skipped — paranoid recovery never trusts unverified bytes.
    /// `Ok(None)` means no usable snapshot exists (fall back to lineage).
    pub fn load_latest(&self) -> Result<Option<Manifest>> {
        let current = self.io.read(&self.root.join("CURRENT"))?.ok();
        let current = current.and_then(|b| String::from_utf8(b).ok());
        let mut tried = None;
        if let Some(current) = current {
            let mut parts = current.split_whitespace();
            if let (Some(name), Some(sum)) = (parts.next(), parts.next()) {
                tried = Some(name.to_string());
                if let Ok(sum) = u64::from_str_radix(sum, 16) {
                    if let Some(m) = self.usable_manifest(name, Some(sum))? {
                        return Ok(Some(m));
                    }
                }
            }
        }
        for seq in self.manifest_seqs()?.into_iter().rev() {
            let name = Self::manifest_name(seq);
            if tried.as_ref() != Some(&name) {
                if let Some(m) = self.usable_manifest(&name, None)? {
                    return Ok(Some(m));
                }
            }
        }
        Ok(None)
    }

    /// Delete unreferenced blob files and manifests older than
    /// `keep_from_seq`. A blob is *referenced* when any surviving
    /// manifest (seq ≥ `keep_from_seq`) lists it, or when the caller
    /// names it in `extra_referenced` (live spilled entries not yet in a
    /// snapshot). Safe at any point: only unreachable garbage is
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
                let name = Self::manifest_name(seq);
                if let Some(m) = tolerate(self.read_manifest_file(&name, None))? {
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
        let body = format!(
            "{PLAN_MAGIC} {:016x}\n{script}",
            Digest::of(script.as_bytes())
        );
        let path = self
            .root
            .join("plans")
            .join(format!("{fingerprint:016x}.dml"));
        self.write_atomic(&path, &[body.as_bytes()])
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
            let text = self.io.read(&path)?.ok();
            let Some(text) = text.and_then(|b| String::from_utf8(b).ok()) else {
                continue;
            };
            let script = text.split_once('\n').and_then(|(header, script)| {
                let sum = header.strip_prefix(PLAN_MAGIC)?.trim();
                let sum = u64::from_str_radix(sum, 16).ok()?;
                (Digest::of(script.as_bytes()) == sum).then(|| script.to_string())
            });
            scripts.extend(script);
        }
        Ok(scripts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmac_matrix::BlockedMatrix;
    use std::fs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    pub(crate) fn temp_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!("dmac-disk-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    impl DiskTier {
        /// A blob's verified payload as raw bytes (the store only ever
        /// reads matrices: [`DiskTier::get_dist`]).
        fn get_blob(&self, hash: &str) -> Result<Vec<u8>> {
            let framed = self.read_blob_file(hash, None)?;
            Ok(framed[BLOB_HEAD..framed.len() - 8].to_vec())
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

    #[test]
    fn manifest_hash_must_be_a_blob_name() {
        let render = |hash: &str| {
            render_manifest(&Manifest {
                seq: 1,
                kind: "checkpoint".into(),
                phase: 0,
                entries: vec![ManifestEntry {
                    name: "m".into(),
                    hash: hash.into(),
                    bytes: 3,
                    logical_bytes: 1,
                    scheme: PartitionScheme::Row,
                }],
            })
        };
        assert!(parse_manifest(&render("00000000deadbeef")).is_ok());
        for bad in [
            "../../x",
            "../../../../etc/x",
            "00000000DEADBEEF",
            "deadbeef",
            "00000000deadbeef0",
            "0000000/deadbeef",
        ] {
            let err = parse_manifest(&render(bad)).unwrap_err();
            assert!(matches!(err, CoreError::Disk(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn blob_roundtrip_and_content_addressing() {
        let tier = DiskTier::open(temp_dir("blob")).unwrap();
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

    #[test]
    fn torn_and_corrupt_blobs_are_detected() {
        let tier = DiskTier::open(temp_dir("torn")).unwrap();
        let (h, _) = tier.put_blob(b"payload-bytes").unwrap();
        let path = tier.blob_path(&h);
        // Truncate.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 4]).unwrap();
        assert!(matches!(tier.get_blob(&h), Err(CoreError::Disk(_))));
        // Flip a payload byte (length intact, checksum wrong).
        let mut flipped = full.clone();
        flipped[BLOB_MAGIC.len() + 8 + 2] ^= 0xFF;
        fs::write(&path, &flipped).unwrap();
        let err = tier.get_blob(&h).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn publish_swaps_current_and_survives_reload() {
        let tier = DiskTier::open(temp_dir("pub")).unwrap();
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
        let tier = DiskTier::open(temp_dir("fallback")).unwrap();
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

    #[test]
    fn missing_blob_invalidates_the_snapshot() {
        let tier = DiskTier::open(temp_dir("missing")).unwrap();
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
        let tier = DiskTier::open(temp_dir("compact")).unwrap();
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
            let tier = DiskTier::open(temp_dir("crash")).unwrap();
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
        let tier = DiskTier::open(temp_dir("midblob")).unwrap();
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
        assert_eq!(torn.len(), BLOB_HEAD + payload.len() / 2);
        assert!(!tier.blob_path(&hash).exists());
        assert!(tier.get_blob(&hash).is_err());
        // A rewrite (post-restart) heals it in place.
        tier.put_blob(payload).unwrap();
        assert!(tier.get_blob(&hash).is_ok());
    }

    #[test]
    fn plan_persistence_roundtrips_and_skips_corruption() {
        let tier = DiskTier::open(temp_dir("plans")).unwrap();
        tier.put_plan(1, "A = random(A, 8, 8)\noutput(A)\n")
            .unwrap();
        tier.put_plan(2, "B = random(B, 4, 4)\noutput(B)\n")
            .unwrap();
        let scripts = tier.list_plans().unwrap();
        assert_eq!(scripts.len(), 2);
        assert!(scripts[0].contains("random"));
        // Corrupt one: it is skipped, the other survives.
        let path = tier.root().join("plans").join(format!("{:016x}.dml", 1u64));
        fs::write(&path, "dmac-plan v2 0000000000000000\ntampered").unwrap();
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
                let tier = DiskTier::open(temp_dir("plan-crash")).unwrap();
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
            // create, write, sync, rename, directory sync
            assert_eq!(calls, 5);
            let tier = DiskTier::open(temp_dir("plan-list")).unwrap();
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

    #[test]
    fn name_escaping_roundtrips() {
        for name in ["plain", "has space", "pct%20", "nl\nname", "tab\tname"] {
            assert_eq!(unescape_name(&escape_name(name)).unwrap(), name);
            assert!(!escape_name(name).contains(' '));
            assert!(!escape_name(name).contains('\n'));
        }
    }
}
