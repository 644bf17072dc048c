//! [`SharedStore`]: the named-matrix store extracted from [`crate::session::Session`].
//!
//! The original `Session` kept its environment as a private
//! `HashMap<String, DistMatrix>`: single-owner, unbounded, and with no way
//! to share matrices between sessions. The service layer (`dmac-serve`)
//! needs the opposite — many concurrent sessions reading and writing the
//! same named matrices — so the environment is now a first-class store:
//!
//! * **named, immutable entries** — a stored [`DistMatrix`] is never
//!   mutated in place; `insert` over an existing name *replaces* the entry
//!   and eagerly releases the old one (the blocks are `Arc`-shared, so the
//!   tiles are freed the moment the last reader drops them — this fixes
//!   the unbounded-growth leak of repeated `store`s over one name);
//! * **bytes-based displacement, by next read** — an optional capacity
//!   bounds the *resident* bytes; over budget, a resident entry is
//!   **spilled** to the disk tier (when one is attached) or evicted (when
//!   not). Any resident entry may go: a reader in flight holds the
//!   `DistMatrix` it was handed, which shares the tiles by `Arc`, so
//!   displacing the entry takes nothing from it. The victim is the entry
//!   read furthest ahead in the batch being
//!   read ([`SharedStore::get_all`]: a session resolving a run's inputs —
//!   the only reads a run makes), and with no batch in hand (a lone `get`,
//!   an `insert`, engine pressure) the least recently used. Victim order
//!   is strictly deterministic (next read, then least-recently-used, name
//!   as tie-break) and depends on nothing kept between calls, so a
//!   serialized replay of a request log reproduces the same store states.
//!   Displacement stops when nothing is resident: what is then still over
//!   budget is the engine's pressure, which the admission-time
//!   certificate gate answers for, not the store;
//! * **durable tier** — with a [`DiskTier`] attached, spilled entries
//!   become content-addressed checksummed blobs and reload transparently
//!   on `get`; [`SharedStore::checkpoint`] publishes a snapshot manifest
//!   and [`SharedStore::recover`] re-populates a fresh store from the
//!   latest valid one as cheap spilled stubs. A blob that fails its
//!   checksum on reload is *dropped* (counted in `load_failures`) and
//!   `get` reports the name as absent — callers fall back to lineage
//!   replay, exactly as for a never-stored name;
//! * **an entry knows its blob** — it holds a `BlobRef` once this process
//!   `put_blob`'d its payload (written or deduplicated), reloaded it
//!   through the blob's checksum, or recovered it from a verified
//!   manifest; only `insert` of a different value drops it. So a ref
//!   never names a file nobody checked (a torn file at a final name has
//!   none), and a *resident* entry with one is displaced or checkpointed
//!   by reading the blob back, not by encoding and hashing it again:
//!   trusted as far as a stub is, plus the read-back that lets a rotted
//!   or compacted-away blob be rewritten from RAM;
//! * **an entry has one identity** — the `rid` of the value it stands for
//!   (inserted, displaced from, or last handed out as), recorded in one
//!   place whether its tiles are in RAM or only in its blob. `insert` of
//!   that value keeps the blob, and a stub stays a stub: a touch;
//! * **write-intent claims** — a program that will `store` a name claims
//!   it at admission; a second in-flight program claiming the same name is
//!   a *conflict* (its effect would depend on scheduling order, which
//!   would break replay determinism).
//!
//! All operations go through a `Mutex`, which a panic under it leaves in
//! service (the panic leaves the store where an error would have); the
//! store is cheap to clone (`Arc`) and is shared between a service's
//! sessions.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use dmac_cluster::{DistMatrix, PartitionScheme};

use crate::disk::{self, DiskTier, ManifestEntry};
use crate::error::{CoreError, Result};
use crate::trace::SpillTraffic;

/// The blob holding exactly an entry's current content.
#[derive(Debug, Clone)]
struct BlobRef {
    hash: String,
    payload_bytes: u64,
}

/// One stored matrix plus its bookkeeping.
#[derive(Debug)]
struct Entry {
    /// The tiles, while they are in RAM (and in `blob`, if set, as last
    /// verified). `None` is a *stub*: the tiles live only in `blob`.
    tiles: Option<DistMatrix>,
    /// The [`DistMatrix::rid`] of the value the entry stands for — the one
    /// inserted, reloaded, displaced or last handed out, resident or not
    /// (`None` on `recover`'s stubs, which stand for no value of this
    /// process).
    rid: Option<u64>,
    /// What planning needs of a stub without touching disk (`scheme_of`).
    scheme: PartitionScheme,
    /// The entry's durable copy, if it has one (see the module header);
    /// always `Some` on a stub.
    blob: Option<BlobRef>,
    /// Logical RAM bytes of one copy (counts toward the budget only
    /// while resident).
    bytes: u64,
    /// Logical timestamp of the last touch (monotonic counter, not wall
    /// time — wall time would make eviction order nondeterministic).
    last_used: u64,
    /// `(rows, cols, nnz)` captured at insert so density classification
    /// (plan-cache keys, profiled planning) works without touching tiles
    /// or disk. `None` for entries recovered as stubs from a snapshot —
    /// their density is unknown until first reload.
    dims_nnz: Option<(usize, usize, u64)>,
}

impl Entry {
    fn resident_bytes(&self) -> u64 {
        self.tiles.as_ref().map_or(0, |_| self.bytes)
    }
}

/// Counters describing a store's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries currently present (resident + spilled).
    pub entries: usize,
    /// Bytes currently resident in RAM (logical bytes, one copy each).
    pub bytes: u64,
    /// Configured capacity (`None` = unbounded).
    pub capacity: Option<u64>,
    /// Total inserts (including replacements).
    pub inserts: u64,
    /// Inserts that replaced an existing entry (the old entry was eagerly
    /// released).
    pub replaced: u64,
    /// Entries evicted outright (no disk tier attached).
    pub evictions: u64,
    /// Entries explicitly removed (`drop`).
    pub dropped: u64,
    /// Write-intent conflicts rejected.
    pub conflicts: u64,
    /// Entries currently spilled (stub in RAM, tiles on disk).
    pub spilled: usize,
    /// Logical bytes of currently spilled entries.
    pub spilled_bytes: u64,
    /// Resident→disk displacements: every one counts, whether its blob
    /// had to be written or was already on disk and only read back.
    pub spills: u64,
    /// Blob payload bytes physically written by spills and checkpoints
    /// (a displacement or snapshot that found its blob intact adds 0).
    pub spill_bytes: u64,
    /// Disk→resident reloads.
    pub loads: u64,
    /// Blob bytes read back by reloads.
    pub load_bytes: u64,
    /// Spilled entries dropped because their blob failed verification
    /// (callers then fall back to lineage replay).
    pub load_failures: u64,
    /// Snapshot manifests published by this store.
    pub snapshots: u64,
    /// Bytes of engine-resident intermediates currently charged against
    /// the budget (see [`SharedStore::set_external_pressure`]).
    pub external_pressure: u64,
    /// High-water mark of `bytes + external_pressure` over the store's
    /// lifetime — a driver's observed peak RAM footprint.
    pub peak_footprint: u64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<String, Entry>,
    /// In-flight write intents: name → claim token.
    claims: HashMap<String, u64>,
    disk: Option<Arc<DiskTier>>,
    /// Latest snapshot `(seq, phase)` published or recovered.
    last_snapshot: Option<(u64, u64)>,
    tick: u64,
    capacity: Option<u64>,
    bytes: u64,
    /// Engine-reported transport-resident bytes, charged against the
    /// budget alongside stored entries (0 outside a run).
    external_pressure: u64,
    /// High-water mark of `bytes + external_pressure` over the store's
    /// lifetime.
    peak_footprint: u64,
    /// The cumulative counters (`inserts` … `snapshots`), kept in the
    /// shape they are reported in; the fields describing the present
    /// state stay zero here and are filled in by [`SharedStore::stats`].
    counters: StoreStats,
}

impl Inner {
    fn touch(&mut self, name: &str) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.get_mut(name) {
            e.last_used = tick;
        }
    }

    /// Make sure `name`'s content is on disk and say where. A stub's
    /// [`BlobRef`] stands; a resident entry's does once the blob reads
    /// back intact (no encode, no hash of the RAM copy). Otherwise — no
    /// ref, or the blob rotted or was compacted away — encode once and
    /// `put_blob`, which writes unless an intact copy is already there.
    fn persist(&mut self, name: &str) -> Result<BlobRef> {
        let disk = self.disk.clone().expect("persist requires a disk tier");
        let e = self.entries.get_mut(name).expect("persisted entry exists");
        let m = match (&e.tiles, &e.blob) {
            (None, blob) => return Ok(blob.clone().expect("stub has a blob")),
            (_, Some(b)) if disk.verify_blob(&b.hash, b.payload_bytes)? => return Ok(b.clone()),
            (Some(m), _) => m,
        };
        let payload = disk::encode_dist(m);
        let (hash, wrote) = disk.put_blob(&payload)?;
        let payload_bytes = payload.len() as u64;
        if wrote {
            self.counters.spill_bytes += payload_bytes;
        }
        let blob = BlobRef {
            hash,
            payload_bytes,
        };
        e.blob = Some(blob.clone());
        Ok(blob)
    }

    /// Displace resident `name`: [`Inner::persist`], then swap to a stub —
    /// the RAM copy goes only once its blob was just written or just read
    /// back. A crash or IO error propagates *before* the swap: the entry
    /// stays resident, the disk holds whatever the torn write left.
    fn spill(&mut self, name: &str) -> Result<()> {
        self.persist(name)?;
        let e = self.entries.get_mut(name).expect("spill victim exists");
        if e.tiles.take().is_some() {
            self.bytes -= e.bytes;
            self.counters.spills += 1;
        }
        Ok(())
    }

    fn over_budget(&self) -> bool {
        self.capacity
            .is_some_and(|cap| self.bytes + self.external_pressure > cap)
    }

    /// The one victim rule: among resident entries, the one whose
    /// next read in `upcoming` (the rest of the batch being read) is
    /// furthest away, an entry not named there counting as infinitely
    /// far; ties go to the least recently used, then by name. With nothing
    /// upcoming — a lone `get`, an `insert`, engine pressure — this is
    /// plain LRU.
    fn victim(&self, upcoming: &[&str]) -> Option<String> {
        let next_read = |name: &String| upcoming.iter().position(|n| n == name);
        self.entries
            .iter()
            .filter(|(_, e)| e.tiles.is_some())
            .min_by(|(an, ae), (bn, be)| {
                // `None` (never again) sorts before every `Some(distance)`.
                let (a, b) = (next_read(an).map(Reverse), next_read(bn).map(Reverse));
                a.cmp(&b)
                    .then_with(|| ae.last_used.cmp(&be.last_used))
                    .then_with(|| an.cmp(bn))
            })
            .map(|(n, _)| n.clone())
    }

    /// Read `name`, the names in `upcoming` being read next (see
    /// [`SharedStore::get_all`]). `Err` only for an injected crash.
    fn read(&mut self, name: &str, upcoming: &[&str]) -> Result<Option<DistMatrix>> {
        self.touch(name);
        let Some(e) = self.entries.get(name) else {
            return Ok(None);
        };
        if let Some(m) = &e.tiles {
            return Ok(Some(m.clone()));
        }
        let blob = e.blob.clone().expect("stub has a blob");
        let disk = self.disk.clone().expect("a stub has a disk tier");
        let Some(m) = disk::tolerate(disk.get_dist(&blob.hash))? else {
            self.counters.load_failures += 1;
            self.entries.remove(name);
            return Ok(None);
        };
        self.counters.loads += 1;
        self.counters.load_bytes += blob.payload_bytes;
        let e = self.entries.get_mut(name).expect("stub present");
        e.dims_nnz = Some((m.rows(), m.cols(), m.nnz() as u64));
        e.tiles = Some(m.clone());
        e.rid = Some(m.rid());
        let bytes = e.bytes;
        self.bytes += bytes;
        // A reload that would be the first victim of its own arrival is
        // handed out and stays a stub, now standing for the value handed
        // out: a load, not a spill — its blob was verified an instant ago.
        if self.over_budget() && self.victim(upcoming).as_deref() == Some(name) {
            self.entries.get_mut(name).expect("just reloaded").tiles = None;
            self.bytes -= bytes;
        }
        // Reloading may displace other entries; a spill that fails leaves
        // its victim resident, and the read still hands back the loaded
        // matrix.
        disk::tolerate(self.enforce_capacity(upcoming))?;
        Ok(Some(m))
    }

    /// Displace [`Inner::victim`]s until resident bytes — plus the
    /// engine's reported transport-resident pressure — fit the budget:
    /// spill when a disk tier is attached, evict otherwise. Returns the
    /// displaced names in order.
    ///
    /// With nothing resident left, what still overshoots is external
    /// pressure alone — not the store's data to shed, so displacement just
    /// stops: the admission-time certificate gate is the layer responsible
    /// for refusing plans whose peak cannot fit.
    fn enforce_capacity(&mut self, upcoming: &[&str]) -> Result<Vec<String>> {
        // High-water mark of the combined footprint (every mutation that
        // can grow it funnels through here, bounded or not) — what the
        // memory bench reports as a driver's observed peak RAM.
        self.peak_footprint = self.peak_footprint.max(self.bytes + self.external_pressure);
        let mut displaced = Vec::new();
        while self.over_budget() {
            let Some(name) = self.victim(upcoming) else {
                break;
            };
            if self.disk.is_some() {
                self.spill(&name)?;
            } else if let Some(e) = self.entries.remove(&name) {
                self.bytes -= e.bytes;
                self.counters.evictions += 1;
            }
            displaced.push(name);
        }
        Ok(displaced)
    }
}

/// A shareable, mutex-guarded store of named distributed matrices.
#[derive(Debug, Clone, Default)]
pub struct SharedStore {
    inner: Arc<Mutex<Inner>>,
}

impl SharedStore {
    /// An unbounded store (the default for standalone sessions).
    pub fn new() -> SharedStore {
        SharedStore::default()
    }

    /// A store that displaces resident entries beyond `capacity_bytes`.
    pub fn with_capacity(capacity_bytes: u64) -> SharedStore {
        let s = SharedStore::default();
        s.inner.lock().unwrap().capacity = Some(capacity_bytes);
        s
    }

    /// An unbounded store backed by a durable data directory.
    pub fn with_disk(dir: impl AsRef<Path>) -> Result<SharedStore> {
        let s = SharedStore::default();
        s.inner.lock().unwrap().disk = Some(Arc::new(DiskTier::open(dir)?));
        Ok(s)
    }

    /// A bounded store whose displaced entries spill to `dir` instead of
    /// being dropped — the working set may exceed `capacity_bytes`.
    pub fn with_capacity_and_disk(
        capacity_bytes: u64,
        dir: impl AsRef<Path>,
    ) -> Result<SharedStore> {
        let s = SharedStore::with_disk(dir)?;
        s.inner.lock().unwrap().capacity = Some(capacity_bytes);
        Ok(s)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned store mutex means a panic under the lock, and what can
        // panic there is the work an error can also interrupt — encoding,
        // decoding, disk I/O — which every update finishes before it
        // commits (`spill` swaps to a stub after `persist`, `read` installs
        // after the decode). So the panic left the store where that error
        // would have, a state it already recovers from: keep serving it,
        // rather than turn one panic into one in every sharing thread.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The attached disk tier, if any (the service layer uses it to
    /// persist plan scripts next to the matrix blobs).
    pub fn disk(&self) -> Option<Arc<DiskTier>> {
        self.lock().disk.clone()
    }

    /// Insert (or replace) `name`. The old entry, if any, is released
    /// eagerly — unless it stands for `m` itself (a clone shares its rid,
    /// every new materialisation re-mints it): then its blob still holds
    /// exactly this content and is kept, and an entry that is a stub —
    /// its tiles are in that blob — stays one, only its LRU clock moved.
    /// Displacement runs afterwards either way. Returns the names spilled
    /// or evicted to make room.
    ///
    /// # Errors
    /// Disk-tier errors when a spill fails (the new entry *is* kept).
    pub fn insert(&self, name: &str, m: DistMatrix) -> Result<Vec<String>> {
        let bytes = m.logical_bytes();
        let dims_nnz = Some((m.rows(), m.cols(), m.nnz() as u64));
        let mut g = self.lock();
        g.counters.inserts += 1;
        g.tick += 1;
        let tick = g.tick;
        let old = g.entries.remove(name);
        g.counters.replaced += u64::from(old.is_some());
        g.bytes -= old.as_ref().map_or(0, Entry::resident_bytes);
        let entry = match old.filter(|e| e.rid == Some(m.rid())) {
            Some(stub) if stub.tiles.is_none() => Entry {
                last_used: tick,
                ..stub
            },
            same => Entry {
                rid: Some(m.rid()),
                scheme: m.scheme(),
                blob: same.and_then(|e| e.blob),
                bytes,
                last_used: tick,
                dims_nnz,
                tiles: Some(m),
            },
        };
        g.bytes += entry.resident_bytes();
        g.entries.insert(name.to_string(), entry);
        g.enforce_capacity(&[])
    }

    /// Fetch a clone of the entry (tiles are `Arc`-shared, so this is
    /// cheap). Bumps the LRU clock. A spilled entry is reloaded from its
    /// blob first; a blob that fails verification drops the entry and
    /// returns `None` (the caller's lineage fallback handles the rest); an
    /// injected crash returns `None` too, dropping nothing. The batch of
    /// one name: see [`SharedStore::get_all`].
    pub fn get(&self, name: &str) -> Option<DistMatrix> {
        self.lock().read(name, &[]).ok().flatten()
    }

    /// [`SharedStore::get`] for every name, in order, as one batch: what
    /// a reload displaces is chosen knowing the reads still to come — the
    /// resident entry read furthest ahead (Belady's rule), never
    /// again counting as furthest, not the least recently used, which
    /// under a cyclic scan of the same names is the one read next. A
    /// reload that would itself be that entry is handed out and stays a
    /// stub: a load, no spill.
    ///
    /// # Errors
    /// An injected crash in a reload or a spill it triggers.
    pub fn get_all(&self, names: &[&str]) -> Result<Vec<Option<DistMatrix>>> {
        let mut g = self.lock();
        (0..names.len())
            .map(|i| g.read(names[i], &names[i + 1..]))
            .collect()
    }

    /// Is `name` present (resident or spilled)?
    pub fn contains(&self, name: &str) -> bool {
        self.lock().entries.contains_key(name)
    }

    /// Is `name` currently spilled to disk?
    pub fn is_spilled(&self, name: &str) -> bool {
        self.lock()
            .entries
            .get(name)
            .is_some_and(|e| e.tiles.is_none())
    }

    /// Partition scheme of an entry. Works for spilled entries without
    /// touching disk — plan-cache keys depend on it.
    pub fn scheme_of(&self, name: &str) -> Option<PartitionScheme> {
        self.lock().entries.get(name).map(|e| e.scheme)
    }

    /// Density class of an entry, from the `(rows, cols, nnz)` captured
    /// at insert. `None` when the entry is absent *or* was recovered as
    /// a snapshot stub whose density is not yet known — plan-cache keys
    /// render that as `?`, exactly like an unknown scheme.
    pub fn density_of(&self, name: &str) -> Option<dmac_stats::DensityClass> {
        self.lock()
            .entries
            .get(name)?
            .dims_nnz
            .map(|(r, c, nnz)| dmac_stats::DensityClass::classify(nnz, r, c))
    }

    /// A resident entry's matrix without bumping the LRU clock or
    /// reloading spilled tiles. Used by planning paths (profile
    /// measurement, explain) that must not perturb eviction or spill
    /// counters; `None` for absent *and* spilled entries.
    pub fn peek(&self, name: &str) -> Option<DistMatrix> {
        self.lock().entries.get(name)?.tiles.clone()
    }

    /// Rids of the entries currently resident — the values a session must
    /// not release on its transport however many handles it has dropped.
    pub fn resident_rids(&self) -> HashSet<u64> {
        let g = self.lock();
        let resident = g.entries.values().filter(|e| e.tiles.is_some());
        resident.filter_map(|e| e.rid).collect()
    }

    /// Remove an entry, releasing its blocks eagerly. Returns whether it
    /// existed.
    pub fn remove(&self, name: &str) -> bool {
        let mut g = self.lock();
        match g.entries.remove(name) {
            Some(e) => {
                g.bytes -= e.resident_bytes();
                g.counters.dropped += 1;
                true
            }
            None => false,
        }
    }

    /// Claim write intents for an in-flight program. Fails with
    /// [`CoreError::StoreConflict`] (claiming nothing) if any name is
    /// already claimed by a different token.
    pub fn claim_writes(&self, names: &[String], token: u64) -> Result<()> {
        let mut g = self.lock();
        for n in names {
            if let Some(&owner) = g.claims.get(n) {
                if owner != token {
                    g.counters.conflicts += 1;
                    return Err(CoreError::StoreConflict(n.clone()));
                }
            }
        }
        for n in names {
            g.claims.insert(n.clone(), token);
        }
        Ok(())
    }

    /// Release every claim held by `token`.
    pub fn release_writes(&self, token: u64) {
        self.lock().claims.retain(|_, &mut t| t != token);
    }

    /// Publish a snapshot of `names` at `phase`: every member's tiles
    /// are made durable name by name in sorted order (a member whose blob
    /// is already on disk is read back, not encoded or written again),
    /// a manifest is written and `CURRENT` swapped to it, then garbage
    /// from superseded snapshots is compacted away. Returns the new
    /// snapshot's sequence number.
    ///
    /// # Errors
    /// Requires a disk tier; fails on unknown names and propagates disk
    /// and injected-crash errors (after which on-disk state is whatever
    /// the interrupted boundary left — by construction either the old or
    /// the new snapshot is still fully recoverable).
    pub fn checkpoint(&self, names: &[String], phase: u64) -> Result<u64> {
        let mut g = self.lock();
        let Some(disk) = g.disk.clone() else {
            return Err(CoreError::Disk(
                "checkpoint requires a store with a disk tier".into(),
            ));
        };
        let mut sorted: Vec<&String> = names.iter().collect();
        sorted.sort();
        sorted.dedup();
        // An unknown name fails the snapshot before any write.
        if let Some(name) = sorted.iter().find(|n| !g.entries.contains_key(**n)) {
            return Err(CoreError::Unbound((*name).clone()));
        }
        let mut entries = Vec::with_capacity(sorted.len());
        for name in sorted {
            let blob = g.persist(name)?;
            let e = &g.entries[name];
            entries.push(ManifestEntry {
                name: name.clone(),
                hash: blob.hash,
                bytes: blob.payload_bytes,
                logical_bytes: e.bytes,
                scheme: e.scheme,
            });
        }
        let seq = disk.publish("checkpoint", phase, entries)?;
        g.counters.snapshots += 1;
        g.last_snapshot = Some((seq, phase));
        // Blobs of live spilled stubs must survive compaction even when
        // they are not part of this snapshot.
        let stubs: HashSet<String> = g
            .entries
            .values()
            .filter(|e| e.tiles.is_none())
            .filter_map(|e| e.blob.as_ref().map(|b| b.hash.clone()))
            .collect();
        disk.compact(&stubs, seq.saturating_sub(1))?;
        Ok(seq)
    }

    /// Re-populate this store from the latest fully-valid snapshot on
    /// the attached disk tier. Entries come back as cheap spilled stubs
    /// (tiles load on first `get`). Returns the recovered names, sorted;
    /// empty when no usable snapshot exists.
    pub fn recover(&self) -> Result<Vec<String>> {
        let mut g = self.lock();
        let Some(disk) = g.disk.clone() else {
            return Err(CoreError::Disk(
                "recover requires a store with a disk tier".into(),
            ));
        };
        let Some(manifest) = disk.load_latest()? else {
            return Ok(Vec::new());
        };
        let mut names = Vec::new();
        for e in &manifest.entries {
            g.tick += 1;
            let tick = g.tick;
            if let Some(old) = g.entries.remove(&e.name) {
                g.bytes -= old.resident_bytes();
            }
            g.entries.insert(
                e.name.clone(),
                Entry {
                    tiles: None,
                    rid: None,
                    scheme: e.scheme,
                    blob: Some(BlobRef {
                        hash: e.hash.clone(),
                        payload_bytes: e.bytes,
                    }),
                    bytes: e.logical_bytes,
                    last_used: tick,
                    dims_nnz: None,
                },
            );
            names.push(e.name.clone());
        }
        g.last_snapshot = Some((manifest.seq, manifest.phase));
        names.sort();
        Ok(names)
    }

    /// `(seq, phase)` of the latest snapshot published or recovered.
    pub fn latest_snapshot(&self) -> Option<(u64, u64)> {
        self.lock().last_snapshot
    }

    /// Report the engine's current transport-resident bytes so the byte
    /// budget covers the *whole* footprint, not just stored entries.
    /// The engine calls this after every plan step with the residency it
    /// just metered (the same number the memory certificate bounds, so
    /// the certified peak predicts exactly the pressure applied here);
    /// cold entries are displaced — spilled with a disk tier,
    /// evicted without one — until `stored + pressure` fits. Early
    /// `Free` steps lower the pressure curve, which is what turns the
    /// liveness pass into fewer spills under a tight budget. Returns the
    /// displaced names. Unbounded stores record the pressure but never
    /// displace.
    ///
    /// # Errors
    /// Disk-tier failures propagate. Pressure that nothing left resident
    /// can offset is tolerated (the admission gate is responsible for
    /// refusing such plans up front).
    pub fn set_external_pressure(&self, bytes: u64) -> Result<Vec<String>> {
        let mut g = self.lock();
        g.external_pressure = bytes;
        g.enforce_capacity(&[])
    }

    /// Cumulative RAM↔disk traffic counters, as the trace's spill
    /// channel type (sessions diff two snapshots to attribute a run's
    /// share — see [`crate::trace::SpillTraffic::since`]).
    pub fn spill_traffic(&self) -> SpillTraffic {
        let g = self.lock();
        SpillTraffic {
            spills: g.counters.spills,
            spill_bytes: g.counters.spill_bytes,
            loads: g.counters.loads,
            load_bytes: g.counters.load_bytes,
        }
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        let g = self.lock();
        let (spilled, spilled_bytes) = g
            .entries
            .values()
            .filter(|e| e.tiles.is_none())
            .fold((0usize, 0u64), |(n, b), e| (n + 1, b + e.bytes));
        StoreStats {
            entries: g.entries.len(),
            bytes: g.bytes,
            capacity: g.capacity,
            spilled,
            spilled_bytes,
            external_pressure: g.external_pressure,
            peak_footprint: g.peak_footprint,
            ..g.counters
        }
    }

    /// Present entry names (resident and spilled), sorted (deterministic
    /// listings).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.lock().entries.keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::tests::TempDir;
    use dmac_cluster::{FaultPlan, PartitionScheme};
    use dmac_matrix::BlockedMatrix;

    fn dist(rows: usize, cols: usize) -> DistMatrix {
        salted(rows, cols, 0.0)
    }

    /// `dist` with `salt` added to every cell: same shape and bytes, other bits.
    fn salted(rows: usize, cols: usize, salt: f64) -> DistMatrix {
        let m = BlockedMatrix::from_fn(rows, cols, 4, |i, j| (i + j) as f64 + salt).unwrap();
        DistMatrix::from_blocked(&m, PartitionScheme::Row, 2)
    }

    fn bits(m: &DistMatrix) -> Vec<u64> {
        let dense = m.to_blocked().unwrap().to_dense();
        dense.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `encode_dist` calls made by this test's thread so far.
    fn encodes() -> usize {
        disk::ENCODES.with(|n| n.get())
    }

    /// `(name, inode, mtime ns, length)` of every blob file, sorted: a blob
    /// written again — even with the same bytes — is a new temp file
    /// renamed into place, so its inode changes.
    fn blob_files(s: &SharedStore) -> Vec<(String, u64, i64, u64)> {
        use std::os::unix::fs::MetadataExt;
        let blocks = s.disk().unwrap().root().join("blocks");
        let mut files: Vec<_> = std::fs::read_dir(blocks)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                let md = entry.metadata().unwrap();
                let name = entry.file_name().to_string_lossy().into_owned();
                let mtime = md.mtime() * 1_000_000_000 + md.mtime_nsec();
                (name, md.ino(), mtime, md.len())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let s = SharedStore::new();
        assert!(s.get("A").is_none());
        s.insert("A", dist(8, 8)).unwrap();
        assert!(s.contains("A"));
        assert_eq!(s.scheme_of("A"), Some(PartitionScheme::Row));
        assert_eq!(s.get("A").unwrap().rows(), 8);
        assert!(s.remove("A"));
        assert!(!s.remove("A"));
        assert_eq!(s.stats().entries, 0);
        assert_eq!(s.stats().bytes, 0);
    }

    #[test]
    fn replacement_releases_old_bytes_eagerly() {
        let s = SharedStore::new();
        s.insert("A", dist(16, 16)).unwrap();
        let big = s.stats().bytes;
        s.insert("A", dist(8, 8)).unwrap();
        let small = s.stats().bytes;
        assert!(small < big, "{small} vs {big}");
        assert_eq!(s.stats().entries, 1);
        assert_eq!(s.stats().replaced, 1);
    }

    #[test]
    fn lru_eviction_is_bytes_bounded_and_deterministic() {
        let one = dist(8, 8).logical_bytes();
        let s = SharedStore::with_capacity(2 * one);
        s.insert("A", dist(8, 8)).unwrap();
        s.insert("B", dist(8, 8)).unwrap();
        // Touch A so B is the LRU victim.
        let _ = s.get("A");
        let evicted = s.insert("C", dist(8, 8)).unwrap();
        assert_eq!(evicted, vec!["B".to_string()]);
        assert!(s.contains("A") && s.contains("C"));
        assert_eq!(s.stats().evictions, 1);
    }

    #[test]
    fn external_pressure_displaces_cold_entries_within_the_budget() {
        let one = dist(8, 8).logical_bytes();
        let dir = TempDir::new("pressure");
        let s = SharedStore::with_capacity_and_disk(3 * one, &dir).unwrap();
        s.insert("A", dist(8, 8)).unwrap();
        s.insert("B", dist(8, 8)).unwrap();
        // Touch A so B is the coldest entry when pressure arrives.
        let _ = s.get("A");
        let displaced = s.set_external_pressure(2 * one).unwrap();
        assert_eq!(displaced, vec!["B".to_string()]);
        assert!(s.is_spilled("B") && !s.is_spilled("A"));
        assert_eq!(s.stats().external_pressure, 2 * one);
        // The high-water mark saw stored + pressure before displacement.
        assert_eq!(s.stats().peak_footprint, 4 * one);
        // Pressure released: nothing else moves, and B reloads on demand.
        assert!(s.set_external_pressure(0).unwrap().is_empty());
        assert_eq!(s.get("B").unwrap().rows(), 8);
        assert_eq!(s.stats().loads, 1);
    }

    #[test]
    fn pressure_nothing_resident_can_offset_is_tolerated() {
        let one = dist(8, 8).logical_bytes();
        // Memory-only store: pressure beyond the budget sheds the one
        // entry there is and then has no victim left. That is not the
        // store's data overshooting — displacement stops instead of
        // erroring (the admission gate upstream refuses plans whose peak
        // cannot fit), and the store keeps working under it.
        let s = SharedStore::with_capacity(2 * one);
        s.insert("A", dist(8, 8)).unwrap();
        assert_eq!(s.set_external_pressure(10 * one).unwrap(), ["A"]);
        assert!(s.set_external_pressure(10 * one).unwrap().is_empty());
        assert_eq!(s.insert("B", dist(8, 8)).unwrap(), ["B"]);
        let st = s.stats();
        assert_eq!((st.entries, st.bytes, st.evictions), (0, 0, 2));
        assert_eq!(st.peak_footprint, 11 * one);
    }

    #[test]
    fn write_claims_detect_conflicts() {
        let s = SharedStore::new();
        let w = vec!["W".to_string(), "H".to_string()];
        s.claim_writes(&w, 1).unwrap();
        // Same token may re-claim (idempotent for one request).
        s.claim_writes(&w, 1).unwrap();
        let err = s.claim_writes(&["H".to_string()], 2).unwrap_err();
        assert!(matches!(err, CoreError::StoreConflict(n) if n == "H"));
        assert_eq!(s.stats().conflicts, 1);
        s.release_writes(1);
        s.claim_writes(&["H".to_string()], 2).unwrap();
    }

    /// A thread that dies holding the lock — here partway through a
    /// request's claims — takes nothing else down: the claim is released,
    /// and every later call is served as before.
    #[test]
    fn a_panic_under_the_lock_leaves_the_store_in_service() {
        let s = SharedStore::new();
        s.insert("A", dist(8, 8)).unwrap();
        let held = s.clone();
        let died = std::thread::spawn(move || {
            let mut g = held.lock();
            g.claims.insert("W".into(), 7);
            panic!("dies holding the store");
        });
        assert!(died.join().is_err());
        assert!(s.inner.is_poisoned());
        s.release_writes(7);
        s.claim_writes(&["W".to_string()], 8).unwrap();
        assert_eq!(bits(&s.get("A").unwrap()), bits(&dist(8, 8)));
        s.insert("B", dist(8, 8)).unwrap();
        assert_eq!((s.stats().entries, s.stats().conflicts), (2, 0));
    }

    #[test]
    fn shared_clones_see_the_same_entries() {
        let a = SharedStore::new();
        let b = a.clone();
        a.insert("X", dist(8, 8)).unwrap();
        assert!(b.contains("X"));
        b.remove("X");
        assert!(!a.contains("X"));
    }

    #[test]
    fn spill_instead_of_evict_and_transparent_reload() {
        let one = dist(8, 8).logical_bytes();
        let dir = TempDir::new("spill");
        let s = SharedStore::with_capacity_and_disk(2 * one, &dir).unwrap();
        s.insert("A", dist(8, 8)).unwrap();
        s.insert("B", dist(8, 8)).unwrap();
        let _ = s.get("A");
        let displaced = s.insert("C", dist(8, 8)).unwrap();
        assert_eq!(displaced, vec!["B".to_string()]);
        // Spilled, not dropped: still present, scheme still known.
        assert!(s.contains("B"));
        assert!(s.is_spilled("B"));
        assert_eq!(s.scheme_of("B"), Some(PartitionScheme::Row));
        let st = s.stats();
        assert_eq!((st.spills, st.evictions, st.spilled), (1, 0, 1));
        assert!(st.spill_bytes > 0);
        // Reload is transparent and bit-exact.
        let healthy = dist(8, 8).to_blocked().unwrap().to_dense();
        let b = s.get("B").unwrap();
        assert_eq!(b.to_blocked().unwrap().to_dense(), healthy);
        assert!(!s.is_spilled("B"));
        let st = s.stats();
        assert_eq!(st.loads, 1);
        assert!(st.load_bytes > 0);
        // Loading B displaced the coldest resident entry to stay in budget.
        assert!(s.stats().bytes <= 2 * one);
    }

    #[test]
    fn corrupt_spill_blob_degrades_to_absent() {
        let one = dist(8, 8).logical_bytes();
        let dir = TempDir::new("corrupt");
        let s = SharedStore::with_capacity_and_disk(one, &dir).unwrap();
        s.insert("A", dist(8, 8)).unwrap();
        s.insert("B", dist(8, 8)).unwrap(); // spills A
        assert!(s.is_spilled("A"));
        // Corrupt every blob on disk.
        let disk = s.disk().unwrap();
        for entry in std::fs::read_dir(disk.root().join("blocks")).unwrap() {
            let p = entry.unwrap().path();
            let bytes = std::fs::read(&p).unwrap();
            std::fs::write(&p, &bytes[..bytes.len() / 2]).unwrap();
        }
        // get() detects the damage, drops the entry, reports absence —
        // exactly what lineage-replay fallback expects.
        assert!(s.get("A").is_none());
        assert!(!s.contains("A"));
        assert_eq!(s.stats().load_failures, 1);
    }

    #[test]
    fn checkpoint_recover_roundtrip_is_bit_exact() {
        let dir = TempDir::new("ckpt");
        let s = SharedStore::with_disk(&dir).unwrap();
        s.insert("W", dist(16, 8)).unwrap();
        s.insert("H", dist(8, 12)).unwrap();
        let names = vec!["W".to_string(), "H".to_string()];
        let seq = s.checkpoint(&names, 3).unwrap();
        assert_eq!(s.latest_snapshot(), Some((seq, 3)));
        assert_eq!(s.stats().snapshots, 1);

        // A fresh store over the same directory recovers both names.
        let r = SharedStore::with_disk(&dir).unwrap();
        let recovered = r.recover().unwrap();
        assert_eq!(recovered, vec!["H".to_string(), "W".to_string()]);
        assert_eq!(r.latest_snapshot(), Some((seq, 3)));
        assert!(r.is_spilled("W") && r.is_spilled("H"));
        assert_eq!(r.scheme_of("W"), Some(PartitionScheme::Row));
        let w0 = s.get("W").unwrap().to_blocked().unwrap().to_dense();
        let w1 = r.get("W").unwrap().to_blocked().unwrap().to_dense();
        assert_eq!(w0, w1, "recovered W must be bit-for-bit identical");
    }

    #[test]
    fn recheckpointing_unchanged_matrices_writes_nothing() {
        let dir = TempDir::new("dedup");
        let s = SharedStore::with_disk(&dir).unwrap();
        s.insert("W", dist(16, 8)).unwrap();
        let names = vec!["W".to_string()];
        s.checkpoint(&names, 1).unwrap();
        let written = s.stats().spill_bytes;
        assert!(written > 0);
        let encoded = encodes();
        s.checkpoint(&names, 2).unwrap();
        assert_eq!(
            s.stats().spill_bytes,
            written,
            "content addressing skips unchanged blobs"
        );
        // ... and, new with the entry's BlobRef, encodes nothing either
        // (the parent encoded and hashed W again to learn it was unchanged).
        assert_eq!(encodes(), encoded);
    }

    /// A checkpoint crashed at any of its calls leaves the old snapshot
    /// fully intact up to its `CURRENT` swap, and the new one after it.
    #[test]
    fn crash_during_checkpoint_preserves_previous_snapshot() {
        let names = vec!["W".to_string()];
        let mut swapped = false;
        for op in 0.. {
            let dir = TempDir::new("crash");
            let s = SharedStore::with_disk(&dir).unwrap();
            s.insert("W", dist(16, 8)).unwrap();
            let seq1 = s.checkpoint(&names, 1).unwrap();
            // Change W, and crash the next checkpoint at call `op`.
            s.insert("W", dist(16, 16)).unwrap();
            s.disk().unwrap().arm_crashes(&FaultPlan::crash(op));
            let err = match s.checkpoint(&names, 2) {
                Ok(_) => break,
                Err(e) => e,
            };
            let CoreError::InjectedCrash { kind, path, .. } = &err else {
                panic!("crash at {op}: {err}");
            };
            // A restarted store sees one whole snapshot.
            let r = SharedStore::with_disk(&dir).unwrap();
            assert_eq!(r.recover().unwrap(), names);
            let (snapshot, cols) = if swapped {
                ((seq1 + 1, 2), 16)
            } else {
                ((seq1, 1), 8)
            };
            assert_eq!(r.latest_snapshot(), Some(snapshot), "crash at {op}");
            assert_eq!(r.get("W").unwrap().rows(), 16);
            assert_eq!(r.get("W").unwrap().cols(), cols, "crash at {op}");
            swapped |= *kind == crate::disk::IoKind::Rename && path.ends_with("CURRENT");
        }
        assert!(swapped, "the sweep passed the CURRENT swap");
    }

    // -- an entry knows its blob -------------------------------------------

    /// Waste removed: load → displace → load → displace of an unchanged
    /// entry encodes and writes it once. The parent wrote it once too
    /// (content addressing) but encoded and hashed it at every displacement.
    #[test]
    fn an_unchanged_entry_is_encoded_and_written_once() {
        let one = dist(8, 8).logical_bytes();
        let dir = TempDir::new("once");
        let s = SharedStore::with_capacity_and_disk(one, &dir).unwrap();
        let (a, b) = (salted(8, 8, 0.5), salted(8, 8, 1.5));
        s.insert("A", a.clone()).unwrap();
        s.insert("B", b.clone()).unwrap(); // displaces A: encoded, written
        assert_eq!(bits(&s.get("A").unwrap()), bits(&a)); // displaces B: encoded, written
        let st = s.stats();
        assert_eq!((st.spills, st.loads, encodes()), (2, 1, 2));
        let files = blob_files(&s);
        assert_eq!(files.len(), 2);
        for round in 0..3 {
            // Each get reloads one name and displaces the other, clean.
            assert_eq!(bits(&s.get("B").unwrap()), bits(&b), "round {round}");
            assert_eq!(bits(&s.get("A").unwrap()), bits(&a), "round {round}");
        }
        let after = s.stats();
        assert_eq!(
            (after.spills, after.loads),
            (8, 7),
            "every displacement counts"
        );
        assert_eq!(after.spill_bytes, st.spill_bytes, "none of them wrote");
        assert_eq!(
            encodes(),
            2,
            "one encode per entry, not one per displacement"
        );
        assert_eq!(
            blob_files(&s),
            files,
            "blob files untouched: same inode, same mtime"
        );
        assert_eq!(after.load_failures, 0);
    }

    /// Parent behaviour pinned (self-healing): a blob truncated, flipped
    /// or deleted behind a clean *resident* entry is rewritten from RAM at
    /// the next checkpoint and at the next displacement — the read-back
    /// notices while the RAM copy still exists.
    #[test]
    fn a_blob_damaged_behind_a_resident_entry_is_rewritten_from_ram() {
        type Wreck = fn(&std::path::Path);
        let wreck: [(&str, Wreck); 3] = [
            ("truncate", |p| {
                let data = std::fs::read(p).unwrap();
                std::fs::write(p, &data[..data.len() / 2]).unwrap();
            }),
            ("flip", |p| {
                let mut data = std::fs::read(p).unwrap();
                let mid = data.len() / 2;
                data[mid] ^= 0x10;
                std::fs::write(p, data).unwrap();
            }),
            ("delete", |p| std::fs::remove_file(p).unwrap()),
        ];
        for (tag, wreck) in wreck {
            let one = dist(8, 8).logical_bytes();
            let dir = TempDir::new(tag);
            let s = SharedStore::with_capacity_and_disk(2 * one, &dir).unwrap();
            let names = vec!["A".to_string()];
            let a = salted(8, 8, 0.75);
            s.insert("A", a.clone()).unwrap();
            s.checkpoint(&names, 1).unwrap();
            let one_blob = s.stats().spill_bytes;
            let files = blob_files(&s);
            let path = s.disk().unwrap().root().join("blocks").join(&files[0].0);

            wreck(&path);
            s.checkpoint(&names, 2).unwrap();
            assert_eq!(
                s.stats().spill_bytes,
                2 * one_blob,
                "{tag}: checkpoint rewrote"
            );
            assert_eq!(blob_files(&s)[0].3, files[0].3, "{tag}: whole again");

            wreck(&path);
            assert_eq!(s.set_external_pressure(2 * one).unwrap(), names);
            assert_eq!(
                s.stats().spill_bytes,
                3 * one_blob,
                "{tag}: displacement rewrote"
            );
            s.set_external_pressure(0).unwrap();
            assert_eq!(bits(&s.get("A").unwrap()), bits(&a), "{tag}");
            assert_eq!(s.stats().load_failures, 0, "{tag}");
        }
    }

    /// A torn file at a blob's final name (a file system that tore it in
    /// place) belongs to no entry — a new store over the directory has no
    /// ref — so the same content goes through `put_blob`, whose probe
    /// rejects the file and rewrites it. A crash inside the write itself
    /// tears only the temp file: the final name never appears.
    #[test]
    fn a_torn_file_at_the_final_name_is_never_deduplicated_against() {
        let dir = TempDir::new("torn-final");
        let names = vec!["A".to_string()];
        let crashed = SharedStore::with_disk(&dir).unwrap();
        crashed.insert("A", dist(8, 8)).unwrap();
        // metadata, create, then the frame's magic, length and payload.
        crashed.disk().unwrap().arm_crashes(&FaultPlan::crash(4));
        let err = crashed.checkpoint(&names, 1).unwrap_err();
        assert!(
            matches!(err, CoreError::InjectedCrash { op: 4, .. }),
            "{err}"
        );
        let left = blob_files(&crashed);
        assert!(left.len() == 1 && left[0].0.ends_with(".tmp"), "{left:?}");
        assert_eq!(crashed.stats().spill_bytes, 0);
        // The crashed store itself, still holding A in RAM, retries.
        crashed.checkpoint(&names, 1).unwrap();
        let torn = blob_files(&crashed);
        assert_eq!(torn.len(), 1);
        std::fs::write(dir.join("blocks").join(&torn[0].0), b"DMBK2\ntorn again").unwrap();
        drop(crashed);

        let s = SharedStore::with_disk(&dir).unwrap();
        s.insert("A", dist(8, 8)).unwrap();
        s.checkpoint(&names, 2).unwrap();
        let whole = blob_files(&s);
        assert_eq!(whole[0].0, torn[0].0, "same content, same name");
        assert_eq!(s.stats().spill_bytes + 22, whole[0].3, "rewritten in full");
        let r = SharedStore::with_disk(&dir).unwrap();
        assert_eq!(r.recover().unwrap(), names);
        assert_eq!(bits(&r.get("A").unwrap()), bits(&dist(8, 8)));
        assert_eq!(r.stats().load_failures, 0);
    }

    // -- one identity, one same-value rule, a batch knows its reads ---------

    /// The resident side of the rule: the very value the entry holds
    /// handed back (`Session::absorb_outputs` does it with a cached input
    /// every run; a clone shares its rid) keeps the entry's blob, so the
    /// next checkpoint and the next displacement encode and write nothing.
    #[test]
    fn the_value_a_resident_entry_holds_keeps_its_blob() {
        let one = dist(8, 8).logical_bytes();
        let dir = TempDir::new("same-resident");
        let s = SharedStore::with_capacity_and_disk(2 * one, &dir).unwrap();
        let names = vec!["A".to_string()];
        s.insert("A", dist(8, 8)).unwrap();
        s.checkpoint(&names, 1).unwrap();
        let (written, files) = (s.stats().spill_bytes, blob_files(&s));
        assert_eq!((encodes(), files.len()), (1, 1));

        let held = s.get("A").unwrap();
        s.insert("A", held.clone()).unwrap();
        assert!(!s.is_spilled("A"));
        assert_eq!(s.peek("A").unwrap().rid(), held.rid());
        let st = s.stats();
        assert_eq!((st.inserts, st.replaced, st.bytes), (2, 1, one));
        s.checkpoint(&names, 2).unwrap();
        assert_eq!(s.set_external_pressure(2 * one).unwrap(), names);
        assert_eq!((encodes(), s.stats().spill_bytes), (1, written));
        assert_eq!(blob_files(&s), files, "same inode, same mtime");
        s.set_external_pressure(0).unwrap();
        assert_eq!(bits(&s.get("A").unwrap()), bits(&held));
    }

    /// The stub side of the same rule: handing a stub the value it was
    /// displaced from, or last handed out as, is a touch — with the blob
    /// directory moved aside any encode-and-put, read-back or write would
    /// fail. It is still an `insert`: counted, and displacement runs.
    #[test]
    fn the_value_a_stub_stands_for_leaves_it_a_stub() {
        let one = dist(8, 8).logical_bytes();
        let dir = TempDir::new("same-stub");
        let s = SharedStore::with_capacity_and_disk(2 * one, &dir).unwrap();
        let (a, b) = (salted(8, 8, 0.5), salted(8, 8, 1.5));
        s.insert("A", a.clone()).unwrap();
        s.insert("B", b).unwrap();
        assert_eq!(s.set_external_pressure(one).unwrap(), ["A"]);
        let (before, files) = (s.stats(), blob_files(&s));
        assert_eq!((before.spills, encodes(), files.len()), (1, 1, 1));

        let blocks = s.disk().unwrap().root().join("blocks");
        let aside = blocks.with_file_name("aside");
        std::fs::rename(&blocks, &aside).unwrap();
        assert!(s.insert("A", a.clone()).unwrap().is_empty());
        std::fs::rename(&aside, &blocks).unwrap();

        let after = s.stats();
        assert!(s.is_spilled("A"));
        assert_eq!((after.inserts, after.replaced), (3, 1), "still an insert");
        assert_eq!(after.bytes, one, "B alone is resident");
        let moved = |st: &StoreStats| (st.spills, st.spill_bytes, st.loads, st.load_bytes);
        assert_eq!((moved(&after), encodes()), (moved(&before), 1));
        assert_eq!(blob_files(&s), files);
        assert!(s.resident_rids().contains(&s.peek("B").unwrap().rid()));
        assert!(
            !s.resident_rids().contains(&a.rid()),
            "a stub holds no value"
        );

        // A reload re-mints the rid, and the stub it leaves when it cannot
        // stay stands for the value handed out — a touch again.
        s.set_external_pressure(2 * one).unwrap();
        let got = s.get("A").unwrap();
        assert_ne!(got.rid(), a.rid());
        assert!(s.is_spilled("A"));
        s.insert("A", got.clone()).unwrap();
        assert!(s.is_spilled("A"));
        assert_eq!((s.stats().loads, s.stats().spills), (1, 2));
        s.set_external_pressure(0).unwrap();
        assert_eq!(bits(&s.get("A").unwrap()), bits(&a));
        assert_eq!(s.stats().load_failures, 0);
    }

    /// The other side, for both: a different rid is a different value.
    /// Over a resident entry and over a stub alike it replaces the entry —
    /// resident, no ref, encoded at its next displacement or checkpoint
    /// (equal content is then deduplicated by `put_blob`, new content gets
    /// a new blob). A `recover`ed stub stands for no value of this process,
    /// so anything replaces it.
    #[test]
    fn a_different_rid_replaces_resident_entry_and_stub_alike() {
        let one = dist(8, 8).logical_bytes();
        let dir = TempDir::new("other");
        let s = SharedStore::with_capacity_and_disk(one, &dir).unwrap();
        let names = vec!["A".to_string()];
        s.insert("A", dist(8, 8)).unwrap();
        s.checkpoint(&names, 1).unwrap();
        let (written, files) = (s.stats().spill_bytes, blob_files(&s));
        assert_eq!((encodes(), files.len()), (1, 1));

        // Equal content, new materialisation, over the resident entry ...
        s.insert("A", dist(8, 8)).unwrap();
        s.checkpoint(&names, 2).unwrap();
        assert_eq!((encodes(), s.stats().spill_bytes), (2, written));
        // ... and over the stub it then becomes.
        assert_eq!(s.set_external_pressure(one).unwrap(), names);
        s.set_external_pressure(0).unwrap();
        s.insert("A", dist(8, 8)).unwrap();
        assert!(!s.is_spilled("A"));
        assert_eq!(s.set_external_pressure(one).unwrap(), names);
        assert_eq!((encodes(), s.stats().spill_bytes), (3, written));
        assert_eq!(blob_files(&s), files, "nothing was written again");

        // New content: a different blob, and a reload returns the new bits.
        let fresh = salted(8, 8, 0.25);
        s.set_external_pressure(0).unwrap();
        s.insert("A", fresh.clone()).unwrap();
        assert_eq!(s.set_external_pressure(one).unwrap(), names);
        assert_eq!((encodes(), s.stats().spill_bytes), (4, 2 * written));
        assert_eq!(blob_files(&s).len(), 2, "old blob (snapshots) + new blob");
        s.set_external_pressure(0).unwrap();
        assert_eq!(bits(&s.get("A").unwrap()), bits(&fresh));

        let r = SharedStore::with_capacity_and_disk(one, &dir).unwrap();
        assert_eq!(r.recover().unwrap(), names);
        let held = r.get("A").unwrap();
        assert_eq!(r.set_external_pressure(one).unwrap(), names);
        r.set_external_pressure(0).unwrap();
        // Displaced from `held`, the stub is `held`'s; recovered anew, nobody's.
        assert!(r.insert("A", held.clone()).unwrap().is_empty());
        assert!(r.is_spilled("A"));
        r.recover().unwrap();
        r.insert("A", held).unwrap();
        assert!(!r.is_spilled("A"));
    }

    /// Waste removed: `[a, b, c]` read as one batch over a store that fits
    /// two, `a` spilled, reloads `a` alone — displacing `b` or `c` for it
    /// would buy a reload two reads later. Parent behaviour pinned as the
    /// empty-batch case: the same three reads one `get` at a time are a
    /// cyclic scan under LRU, and each displaces the name read next.
    #[test]
    fn a_batch_displaces_what_it_reads_last_not_what_it_reads_next() {
        let one = dist(8, 8).logical_bytes();
        let filled = |tag: &str| {
            let dir = TempDir::new(tag);
            let s = SharedStore::with_capacity_and_disk(2 * one, &dir).unwrap();
            for (i, name) in ["a", "b", "c"].into_iter().enumerate() {
                s.insert(name, salted(8, 8, i as f64)).unwrap();
            }
            assert!(s.is_spilled("a") && !s.is_spilled("b") && !s.is_spilled("c"));
            (dir, s)
        };
        let (_dir, s) = filled("batch");
        let got = s.get_all(&["a", "b", "c"]).unwrap();
        for (i, m) in got.iter().enumerate() {
            assert_eq!(bits(m.as_ref().unwrap()), bits(&salted(8, 8, i as f64)));
        }
        let st = s.stats();
        assert_eq!((st.loads, st.spills), (1, 1), "a handed out, b and c kept");
        assert!(s.is_spilled("a") && !s.is_spilled("b") && !s.is_spilled("c"));
        assert!(s.get_all(&["missing", "b"]).unwrap()[0].is_none());

        let (_lru_dir, lru) = filled("lone-gets");
        for name in ["a", "b", "c"] {
            lru.get(name).unwrap();
        }
        let st = lru.stats();
        assert_eq!((st.loads, st.spills), (3, 4));
    }

    /// An entry the budget can never hold is handed out and stays a stub —
    /// a load, not a spill: the parent installed it and read the blob
    /// back a second time to displace it. The stub now stands for the
    /// value handed out, so absorbing that one back is a touch too.
    #[test]
    fn a_reload_that_cannot_stay_is_handed_out() {
        let one = dist(8, 8).logical_bytes();
        let dir = TempDir::new("handout");
        let s = SharedStore::with_capacity_and_disk(one, &dir).unwrap();
        let big = salted(16, 16, 0.5);
        assert_eq!(s.insert("big", big.clone()).unwrap(), ["big"]);
        let files = blob_files(&s);
        let got = s.get("big").unwrap();
        assert_eq!(bits(&got), bits(&big));
        assert_ne!(got.rid(), big.rid(), "a reload is a new materialisation");
        let st = s.stats();
        assert_eq!((st.loads, st.spills, st.bytes), (1, 1, 0));
        assert!(s.is_spilled("big"));
        assert!(s.density_of("big").is_some());
        s.insert("big", got).unwrap();
        assert!(s.is_spilled("big"));
        s.insert("big", big).unwrap();
        assert_eq!((encodes(), s.stats().spills), (2, 2), "no longer its value");
        assert_eq!(blob_files(&s), files);
    }

    /// Parent behaviour preserved: an unknown member fails the snapshot
    /// before any write (and now before any encode).
    #[test]
    fn checkpoint_with_an_unknown_name_writes_nothing() {
        let dir = TempDir::new("unbound");
        let s = SharedStore::with_disk(&dir).unwrap();
        s.insert("a", dist(8, 8)).unwrap();
        let err = s
            .checkpoint(&["a".to_string(), "b".to_string()], 1)
            .unwrap_err();
        assert!(matches!(err, CoreError::Unbound(n) if n == "b"));
        let st = s.stats();
        assert_eq!((st.spill_bytes, st.snapshots, encodes()), (0, 0, 0));
        assert!(blob_files(&s).is_empty());
        assert!(s.disk().unwrap().load_latest().unwrap().is_none());
    }
}
