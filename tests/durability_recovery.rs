//! Durability integration tests: the crash sweep.
//!
//! The load-bearing claims exercised here:
//!
//! * a deterministic crash injected at **every** file-system call the disk
//!   tier makes during a checkpointed GNMF or PageRank run — and during
//!   one under capacity pressure, whose spills are crashed too — leaves
//!   on-disk state from which a restarted driver recovers and finishes
//!   **bit-for-bit identical** to an uninterrupted run;
//! * resuming from a snapshot skips the already-completed iterations
//!   (recovery is cheaper than full lineage replay);
//! * torn or corrupt block files are detected by checksum and degrade
//!   the restart to an older snapshot — or to full lineage replay —
//!   never to wrong answers;
//! * a crash during recovery itself is harmless (recovery is read-only);
//! * a seeded truncation or bit flip of any one file of a checkpointed
//!   data dir — blob, manifest, `CURRENT` or plan — is caught by its
//!   frame: the run resumes from the newest snapshot that file is not
//!   part of, or replays, and ends on the healthy bits;
//! * runs whose working set exceeds the RAM budget spill to disk and
//!   reload transparently, with the traffic metered on the trace's
//!   third channel, and still produce bit-identical results.

use std::collections::HashMap;
use std::fs;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use dmac::apps::gnmf::GNMF_CHECKPOINT_NAMES;
use dmac::apps::{CheckpointedRun, Gnmf, PageRank};
use dmac::cluster::transport::wire::Digest;
use dmac::cluster::FaultPlan;
use dmac::core::{CoreError, DiskTier, IoKind, Manifest, Session, SharedStore};
use dmac::lang::Program;
use dmac::matrix::{BlockedMatrix, SplitMix64};

mod common;
use common::TempDir;

fn session_over(store: SharedStore, plan: Option<FaultPlan>) -> Session {
    let mut b = Session::builder()
        .workers(3)
        .local_threads(1)
        .block_size(8)
        .seed(42)
        .store(store);
    if let Some(p) = plan {
        b = b.fault_plan(p);
    }
    b.build()
}

/// Exact f64 bit patterns — the comparison the paper-grade recovery
/// claim is made in.
fn bits(m: &BlockedMatrix) -> Vec<u64> {
    m.to_dense().data().iter().map(|v| v.to_bits()).collect()
}

fn gnmf_cfg() -> Gnmf {
    Gnmf {
        rows: 24,
        cols: 18,
        sparsity: 0.4,
        rank: 4,
        iterations: 3,
    }
}

fn gnmf_input() -> BlockedMatrix {
    dmac::data::uniform_sparse(24, 18, 0.4, 8, 5)
}

/// Uninterrupted checkpointed run in `dir`; returns (W, H) bits.
fn gnmf_healthy(dir: &Path) -> (Vec<u64>, Vec<u64>) {
    let store = SharedStore::with_disk(dir).unwrap();
    let mut s = session_over(store, None);
    let run = gnmf_cfg().run_checkpointed(&mut s, &gnmf_input()).unwrap();
    assert_eq!(run.resumed_from, 0);
    assert_eq!(run.ran_iterations, 3);
    (
        bits(&s.env_value("W").unwrap()),
        bits(&s.env_value("H").unwrap()),
    )
}

fn pagerank_cfg() -> PageRank {
    PageRank {
        nodes: 40,
        link_sparsity: 0.1,
        damping: 0.85,
        iterations: 3,
    }
}

fn pagerank_input() -> BlockedMatrix {
    dmac::data::powerlaw_graph(40, 160, 8, 3)
}

/// One crash of a sweep: the call it stopped, and the phase the
/// restarted driver resumed from.
struct Crash {
    op: u64,
    kind: IoKind,
    path: PathBuf,
    resumed_from: usize,
}

fn open_store(dir: &Path, capacity: Option<u64>) -> SharedStore {
    match capacity {
        Some(cap) => SharedStore::with_capacity_and_disk(cap, dir).unwrap(),
        None => SharedStore::with_disk(dir).unwrap(),
    }
}

/// Crash `run` — a checkpointed driver of `iterations` — over a fresh
/// directory (a store of `capacity` bytes, if given) at every file-system
/// call its healthy run makes. Each crashed run must end in the injected
/// crash naming that call; a fresh store over the same directory then
/// recovers, and the driver resumes and finishes with the healthy bits of
/// `outputs`. Returns the crashes in call order.
fn crash_sweep(
    tag: &str,
    capacity: Option<u64>,
    iterations: usize,
    run: impl Fn(&mut Session) -> dmac::core::Result<CheckpointedRun>,
    outputs: &[&str],
) -> Vec<Crash> {
    let values = |s: &Session| -> Vec<Vec<u64>> {
        outputs
            .iter()
            .map(|name| bits(&s.env_value(name).unwrap()))
            .collect()
    };
    let dir = TempDir::new(&format!("{tag}-healthy"));
    let store = open_store(&dir, capacity);
    let mut s = session_over(store.clone(), Some(FaultPlan::none()));
    run(&mut s).unwrap();
    let calls = store.disk().unwrap().ops();
    let healthy = values(&s);

    let mut crashes = Vec::new();
    for op in 0..=calls {
        let dir = TempDir::new(&format!("{tag}-{op}"));
        let mut s = session_over(open_store(&dir, capacity), Some(FaultPlan::crash(op)));
        let first = run(&mut s);
        drop(s);
        if op == calls {
            // One past the healthy run's last call: nothing fires.
            first.unwrap();
            break;
        }
        let (kind, path) = match first {
            Err(CoreError::InjectedCrash { op: at, kind, path }) if at == op => (kind, path),
            other => panic!("{tag}: crash at {op} ended in {:?}", other.map(drop)),
        };
        // "Restart the process": a fresh store over the same directory.
        let store = open_store(&dir, capacity);
        store.recover().unwrap();
        let mut s = session_over(store, None);
        let resumed = run(&mut s).unwrap();
        assert_eq!(
            resumed.resumed_from + resumed.ran_iterations,
            iterations,
            "{tag}: crash at {op}: the driver must account for every iteration"
        );
        assert_eq!(
            values(&s),
            healthy,
            "{tag}: crash at {op} must recover bit-for-bit"
        );
        crashes.push(Crash {
            op,
            kind,
            path,
            resumed_from: resumed.resumed_from,
        });
    }
    crashes
}

/// The durability steps a sweep must have crashed at least once: a blob
/// write, a manifest write, the `CURRENT` swap and a compaction removal;
/// and some crash must leave a snapshot past phase 0 to resume from.
fn assert_covers(tag: &str, crashes: &[Crash]) {
    let file = |c: &Crash| c.path.file_name().unwrap().to_string_lossy().into_owned();
    let under_blocks = |c: &Crash| c.path.parent().is_some_and(|d| d.ends_with("blocks"));
    let hit = |what: &str, f: &dyn Fn(&Crash) -> bool| {
        assert!(crashes.iter().any(f), "{tag}: no crash at a {what}");
    };
    hit("blob write", &|c| {
        c.kind == IoKind::Write && under_blocks(c)
    });
    hit("manifest write", &|c| {
        c.kind == IoKind::Write && file(c).starts_with("manifest-")
    });
    hit("CURRENT swap", &|c| {
        c.kind == IoKind::Rename && file(c) == "CURRENT"
    });
    hit("compaction", &|c| c.kind == IoKind::Remove);
    hit("resume past phase 0", &|c| c.resumed_from > 0);
}

/// The calls each checkpoint of a healthy checkpointed GNMF run makes,
/// as ranges of the disk tier's call count: `Gnmf::run_checkpointed`'s
/// loop spelled out, so the count can be read around every snapshot.
fn gnmf_checkpoint_calls(capacity: Option<u64>) -> Vec<Range<u64>> {
    let dir = TempDir::new("gnmf-calls");
    let store = open_store(&dir, capacity);
    let disk = store.disk().unwrap();
    let mut s = session_over(store, Some(FaultPlan::none()));
    let names = GNMF_CHECKPOINT_NAMES.map(String::from);
    let (mut init, mut step) = (Program::new(), Program::new());
    gnmf_cfg().build_init(&mut init).unwrap();
    gnmf_cfg().build_step(&mut step).unwrap();
    s.bind("V", gnmf_input()).unwrap();
    s.run(&init).unwrap();
    let mut calls = Vec::new();
    for phase in 0..=gnmf_cfg().iterations as u64 {
        if phase > 0 {
            s.run(&step).unwrap();
        }
        let from = disk.ops();
        s.checkpoint(&names, phase).unwrap();
        calls.push(from..disk.ops());
    }
    calls
}

#[test]
fn gnmf_crash_matrix_recovers_bit_for_bit() {
    let cfg = gnmf_cfg();
    let v = gnmf_input();
    let run = |s: &mut Session| cfg.run_checkpointed(s, &v);
    let crashes = crash_sweep("gnmf", None, cfg.iterations, run, &["W", "H"]);
    assert_covers("gnmf", &crashes);
}

#[test]
fn pagerank_crash_matrix_recovers_bit_for_bit() {
    let cfg = pagerank_cfg();
    let adj = pagerank_input();
    let run = |s: &mut Session| cfg.run_checkpointed(s, &adj);
    let crashes = crash_sweep("pr", None, cfg.iterations, run, &["rank"]);
    assert_covers("pagerank", &crashes);
}

/// Under a budget its working set cannot fit, the run spills between
/// checkpoints: those blob writes — and the reloads after them — are
/// crashed too, and recover like the rest.
#[test]
fn capacity_pressured_crash_matrix_recovers_bit_for_bit() {
    // The V/W/H working set is ~3.2 KB; see spill_roundtrip_preserves_bits_and_is_metered.
    let capacity = Some(1500);
    let cfg = gnmf_cfg();
    let v = gnmf_input();
    let run = |s: &mut Session| cfg.run_checkpointed(s, &v);
    let crashes = crash_sweep("gnmf-capped", capacity, cfg.iterations, run, &["W", "H"]);
    assert_covers("gnmf-capped", &crashes);
    let checkpoints = gnmf_checkpoint_calls(capacity);
    assert_eq!(
        checkpoints.last().unwrap().end,
        crashes.len() as u64,
        "the driver ends with its last snapshot"
    );
    let spill = |c: &Crash| {
        let in_checkpoint = checkpoints.iter().any(|r| r.contains(&c.op));
        let blob = c.path.parent().is_some_and(|d| d.ends_with("blocks"));
        c.kind == IoKind::Write && blob && !in_checkpoint
    };
    assert!(crashes.iter().any(spill), "no crash at a spill write");
}

/// A crash during the *third* checkpoint leaves the phase-1 snapshot
/// durable; the restarted driver must resume there — replaying fewer
/// iterations than a full lineage replay — and still match exactly.
#[test]
fn resume_skips_completed_iterations() {
    let healthy = gnmf_healthy(&TempDir::new("gnmf-skip-healthy"));
    let cfg = gnmf_cfg();
    let v = gnmf_input();
    let dir = TempDir::new("gnmf-skip");
    let store = SharedStore::with_disk(&dir).unwrap();
    // Checkpoints are phases 0, 1, 2, 3: crash at the first call of the
    // one that would have made phase 2 durable.
    let plan = FaultPlan::crash(gnmf_checkpoint_calls(None)[2].start);
    let mut s = session_over(store, Some(plan));
    let err = cfg.run_checkpointed(&mut s, &v).unwrap_err();
    assert!(matches!(err, CoreError::InjectedCrash { .. }), "{err}");
    drop(s);

    let store = SharedStore::with_disk(&dir).unwrap();
    let recovered = store.recover().unwrap();
    assert!(
        recovered.contains(&"V".to_string())
            && recovered.contains(&"W".to_string())
            && recovered.contains(&"H".to_string()),
        "snapshot must restore all checkpointed names: {recovered:?}"
    );
    let mut s = session_over(store, None);
    let run = cfg.run_checkpointed(&mut s, &v).unwrap();
    assert_eq!(run.resumed_from, 1, "phase-1 snapshot was the last durable");
    assert_eq!(run.ran_iterations, 2, "resume must skip iteration 1");
    let got = (
        bits(&s.env_value("W").unwrap()),
        bits(&s.env_value("H").unwrap()),
    );
    assert_eq!(got, healthy);
}

/// A crash at any call of recovery itself is harmless: recovery is
/// read-only, so simply recovering again succeeds and yields the full
/// snapshot.
#[test]
fn crash_during_recovery_is_retryable() {
    let dir = TempDir::new("gnmf-midrecovery");
    let healthy = gnmf_healthy(&dir);

    let mut calls = 0;
    loop {
        let store = SharedStore::with_disk(&dir).unwrap();
        store.disk().unwrap().arm_crashes(&FaultPlan::crash(calls));
        let Err(err) = store.recover() else {
            break;
        };
        assert!(
            matches!(err, CoreError::InjectedCrash { op, .. } if op == calls),
            "{err}"
        );
        assert!(
            store.names().is_empty(),
            "a crashed recovery restores nothing"
        );
        assert_eq!(
            store.recover().unwrap(),
            ["H", "V", "W"],
            "crash at {calls}"
        );
        let mut s = session_over(store, None);
        let run = gnmf_cfg().run_checkpointed(&mut s, &gnmf_input()).unwrap();
        assert_eq!(run.resumed_from, 3, "full snapshot: nothing left to run");
        assert_eq!(run.ran_iterations, 0);
        let got = (
            bits(&s.env_value("W").unwrap()),
            bits(&s.env_value("H").unwrap()),
        );
        assert_eq!(got, healthy);
        calls += 1;
    }
    // CURRENT, its manifest, and each of the three blobs it names.
    assert_eq!(calls, 5);
}

/// Corrupting a blob unique to the newest snapshot (the final W) makes
/// that manifest unusable; recovery must fall back to the previous
/// snapshot and the driver recompute only the lost iteration.
#[test]
fn corrupt_blob_falls_back_to_previous_snapshot() {
    let dir = TempDir::new("gnmf-corrupt-one");
    let healthy = gnmf_healthy(&dir);

    let disk = DiskTier::open(&dir).unwrap();
    let latest = disk.load_latest().unwrap().expect("snapshot exists");
    assert_eq!(latest.phase, 3);
    let w = latest
        .entries
        .iter()
        .find(|e| e.name == "W")
        .expect("W checkpointed");
    let path = dir.join("blocks").join(format!("{}.blk", w.hash));
    let mut data = fs::read(&path).unwrap();
    let mid = data.len() / 2;
    data[mid] ^= 0xFF;
    fs::write(&path, data).unwrap();

    let store = SharedStore::with_disk(&dir).unwrap();
    store.recover().unwrap();
    let (_, phase) = store.latest_snapshot().expect("fallback snapshot");
    assert!(
        phase < 3,
        "corrupt newest snapshot must fall back, got phase {phase}"
    );
    let mut s = session_over(store, None);
    let run = gnmf_cfg().run_checkpointed(&mut s, &gnmf_input()).unwrap();
    assert_eq!(run.resumed_from as u64, phase);
    assert!(run.ran_iterations >= 1);
    let got = (
        bits(&s.env_value("W").unwrap()),
        bits(&s.env_value("H").unwrap()),
    );
    assert_eq!(got, healthy);
}

/// A file framed as the disk tier frames every file (`DMBK2`, payload
/// length, payload, digest): what a writer that knows the format, but not
/// the data, would put down.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = b"DMBK2\n".to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&Digest::of(payload).to_le_bytes());
    out
}

/// A manifest is outside input, and its blob hashes become file names: an
/// entry naming `../../stolen` must not make recovery verify — and then
/// load — a file outside the data dir, however intact that file is. The
/// forged newest manifest, framed as the tier frames it and named by
/// `CURRENT`, so that only the hash check stands in its way, is skipped
/// and recovery falls back to the previous snapshot.
#[test]
fn manifest_entry_naming_a_path_is_skipped() {
    let outer = TempDir::new("gnmf-escape");
    let dir = outer.join("data");
    gnmf_healthy(&dir);

    let disk = DiskTier::open(&dir).unwrap();
    let latest = disk.load_latest().unwrap().expect("snapshot exists");
    assert_eq!(latest.phase, 3);
    let w = latest.entries.iter().find(|e| e.name == "W").unwrap();
    let blob = dir.join("blocks").join(format!("{}.blk", w.hash));
    fs::copy(blob, outer.join("stolen.blk")).unwrap();

    let real = fs::read(dir.join(format!("manifest-{:06}.txt", latest.seq))).unwrap();
    let doc = std::str::from_utf8(&real[14..real.len() - 8]).unwrap();
    let forged = doc
        .replace(&w.hash, "../../stolen")
        .replace(&format!("\"seq\":{},", latest.seq), "\"seq\":999,")
        .replace("\"phase\":3,", "\"phase\":99,");
    for part in ["../../stolen", "\"seq\":999,", "\"phase\":99,"] {
        assert!(forged.contains(part), "{part} in {forged}");
    }
    fs::write(dir.join("manifest-000999.txt"), framed(forged.as_bytes())).unwrap();
    fs::write(dir.join("CURRENT"), framed(b"manifest-000999.txt")).unwrap();

    let back = disk.load_latest().unwrap().expect("previous snapshot");
    assert_eq!((back.seq, back.phase), (latest.seq, 3));
    let store = SharedStore::with_disk(&dir).unwrap();
    store.recover().unwrap();
    assert_eq!(store.latest_snapshot().map(|(_, phase)| phase), Some(3));
}

/// Corrupting or truncating *every* blob leaves no usable snapshot at
/// all: recovery degrades to an empty store and the driver replays the
/// full lineage from iteration 0 — same bits, just more work.
#[test]
fn total_corruption_degrades_to_full_lineage_replay() {
    for (tag, wreck) in [
        (
            "flip",
            (|data: &mut Vec<u8>| {
                let mid = data.len() / 2;
                data[mid] ^= 0x01;
            }) as fn(&mut Vec<u8>),
        ),
        ("truncate", |data: &mut Vec<u8>| {
            data.truncate(data.len() / 2);
        }),
    ] {
        let dir = TempDir::new(&format!("gnmf-wreck-{tag}"));
        let healthy = gnmf_healthy(&dir);

        let blocks = dir.join("blocks");
        for entry in fs::read_dir(&blocks).unwrap() {
            let path = entry.unwrap().path();
            let mut data = fs::read(&path).unwrap();
            wreck(&mut data);
            fs::write(&path, data).unwrap();
        }

        let store = SharedStore::with_disk(&dir).unwrap();
        let recovered = store.recover().unwrap();
        assert!(
            recovered.is_empty(),
            "{tag}: no blob verifies, nothing must recover: {recovered:?}"
        );
        assert!(store.latest_snapshot().is_none());
        let mut s = session_over(store, None);
        let run = gnmf_cfg().run_checkpointed(&mut s, &gnmf_input()).unwrap();
        assert_eq!(run.resumed_from, 0, "{tag}: full replay");
        assert_eq!(run.ran_iterations, 3);
        let got = (
            bits(&s.env_value("W").unwrap()),
            bits(&s.env_value("H").unwrap()),
        );
        assert_eq!(got, healthy, "{tag}: replay must match the healthy run");
    }
}

/// FNV-1a-64, the digest the `DMBK1` / `dmac-plan v1` formats used.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rewrite a healthy GNMF data dir as an older build left it: its newest
/// snapshot as a text manifest (`dmac-manifest v1`), a `CURRENT` line of
/// `"<manifest> <sum>"` and a script under a `dmac-plan` header line,
/// each summed by `sum`; with `fnv`, also every blob re-framed `DMBK1`
/// and re-named by FNV-1a, as the build before the word digest wrote them.
fn rewrite_as_an_older_build(dir: &Path, fnv: bool) {
    let sum = |bytes: &[u8]| if fnv { fnv1a(bytes) } else { Digest::of(bytes) };
    let latest: Manifest = DiskTier::open(dir).unwrap().load_latest().unwrap().unwrap();
    let mut renames = HashMap::new();
    for entry in fs::read_dir(dir.join("blocks")).unwrap() {
        let path = entry.unwrap().path();
        let framed = fs::read(&path).unwrap();
        assert_eq!(&framed[..6], b"DMBK2\n");
        if fnv {
            let payload = &framed[14..framed.len() - 8];
            let mut old = b"DMBK1\n".to_vec();
            old.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            old.extend_from_slice(payload);
            old.extend_from_slice(&fnv1a(payload).to_le_bytes());
            let name = format!("{:016x}", fnv1a(payload));
            fs::write(dir.join("blocks").join(format!("{name}.blk")), old).unwrap();
            fs::remove_file(&path).unwrap();
            let stem = path.file_stem().unwrap().to_string_lossy().to_string();
            renames.insert(stem, name);
        }
    }
    let mut text = format!(
        "dmac-manifest v1\nseq {}\nkind {}\nphase {}\n",
        latest.seq, latest.kind, latest.phase
    );
    for e in &latest.entries {
        let hash = renames.get(&e.hash).unwrap_or(&e.hash);
        let (name, bytes, logical, scheme) = (&e.name, e.bytes, e.logical_bytes, e.scheme);
        text += &format!("entry {name} {hash} {bytes} {logical} {scheme}\n");
    }
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("manifest-")
        {
            fs::remove_file(path).unwrap();
        }
    }
    let name = format!("manifest-{:06}.txt", latest.seq);
    fs::write(dir.join(&name), &text).unwrap();
    let current = format!("{name} {:016x}\n", sum(text.as_bytes()));
    fs::write(dir.join("CURRENT"), current).unwrap();
    let script = "A = random(A, 8, 8)\noutput(A)\n";
    let version = if fnv { 1 } else { 2 };
    let plan = format!(
        "dmac-plan v{version} {:016x}\n{script}",
        sum(script.as_bytes())
    );
    fs::write(dir.join("plans").join("0000000000000001.dml"), plan).unwrap();
}

/// A data dir an older build wrote recovers nothing: `load_latest`
/// answers `Ok(None)`, the store recovers empty without a panic, the run
/// replays its lineage to the healthy bits, and the old script is skipped.
fn an_older_build_s_data_dir_recovers_nothing(fnv: bool) {
    let dir = TempDir::new(&format!("gnmf-older-{fnv}"));
    let healthy = gnmf_healthy(&dir);
    rewrite_as_an_older_build(&dir, fnv);

    let disk = DiskTier::open(&dir).unwrap();
    assert!(disk.load_latest().unwrap().is_none());
    assert!(disk.list_plans().unwrap().is_empty());
    let store = SharedStore::with_disk(&dir).unwrap();
    assert!(store.recover().unwrap().is_empty());
    assert!(store.latest_snapshot().is_none());
    let mut s = session_over(store, None);
    let run = gnmf_cfg().run_checkpointed(&mut s, &gnmf_input()).unwrap();
    assert_eq!((run.resumed_from, run.ran_iterations), (0, 3));
    let got = (
        bits(&s.env_value("W").unwrap()),
        bits(&s.env_value("H").unwrap()),
    );
    assert_eq!(got, healthy);
}

/// The FNV era: `DMBK1` blobs named and sealed by FNV-1a, and `CURRENT`
/// and a `dmac-plan v1` script summed by it — the same policy as a
/// `DMDM1` payload.
#[test]
fn a_data_dir_of_the_fnv_format_recovers_nothing() {
    an_older_build_s_data_dir_recovers_nothing(true);
}

/// The text-manifest era: `DMBK2` blobs as today, but a manifest, `CURRENT`
/// and plan file outside the one frame.
#[test]
fn a_data_dir_of_text_manifests_recovers_nothing() {
    an_older_build_s_data_dir_recovers_nothing(false);
}

/// Squeeze the working set below the RAM budget: the store must spill
/// to disk instead of dropping entries, reload transparently, meter the
/// traffic on the trace's third channel — and the results must still be
/// bit-identical to an unconstrained run.
#[test]
fn spill_roundtrip_preserves_bits_and_is_metered() {
    let healthy = gnmf_healthy(&TempDir::new("gnmf-spill-healthy"));

    let dir = TempDir::new("gnmf-spill");
    // The V/W/H working set is ~3.2 KB; a 1.5 KB budget can never hold
    // all three resident, forcing displacement on every input fetch.
    let store = SharedStore::with_capacity_and_disk(1500, &dir).unwrap();
    let mut s = session_over(store.clone(), None);
    let run = gnmf_cfg().run_checkpointed(&mut s, &gnmf_input()).unwrap();
    assert_eq!(run.ran_iterations, 3);

    let stats = store.stats();
    assert!(stats.spills > 0, "budget forces spills: {stats:?}");
    assert!(stats.loads > 0, "spilled inputs must reload: {stats:?}");
    assert!(stats.spill_bytes > 0 && stats.load_bytes > 0, "{stats:?}");
    assert_eq!(stats.dropped, 0, "disk-backed store never drops: {stats:?}");
    // The last run's trace carries the third channel.
    let trace = s.last_trace().expect("ran at least one program");
    assert!(
        trace.spill.loads > 0,
        "per-run spill channel must meter reloads: {:?}",
        trace.spill
    );
    assert!(trace
        .golden_summary()
        .contains(&format!("loads={}", trace.spill.loads)));

    let got = (
        bits(&s.env_value("W").unwrap()),
        bits(&s.env_value("H").unwrap()),
    );
    assert_eq!(got, healthy, "spill/reload must be bit-transparent");
}

/// The store's counters are evidence only if they repeat: two identical
/// checkpointed GNMF runs under half the RAM their working set takes move
/// the same entries in the same order — outputs are absorbed in key
/// order, not `HashMap` order — so every traffic counter is equal, run
/// for run. And a step program reads `V`, `W`, `H` as one batch: none of
/// them is displaced between being named and being read, so none is
/// reloaded twice.
#[test]
fn halved_ram_runs_repeat_their_store_counters_exactly() {
    use dmac::core::trace::SpillTraffic;

    let whole = TempDir::new("gnmf-halved-whole");
    let uncapped = SharedStore::with_disk(&whole).unwrap();
    let mut s = session_over(uncapped.clone(), None);
    gnmf_cfg().run_checkpointed(&mut s, &gnmf_input()).unwrap();
    let healthy = (
        bits(&s.env_value("W").unwrap()),
        bits(&s.env_value("H").unwrap()),
    );
    let half = uncapped.stats().bytes / 2;

    let names: Vec<String> = GNMF_CHECKPOINT_NAMES.map(String::from).to_vec();
    let (mut init, mut step) = (Program::new(), Program::new());
    gnmf_cfg().build_init(&mut init).unwrap();
    gnmf_cfg().build_step(&mut step).unwrap();
    let capped_run = |tag: &str| -> (SpillTraffic, Vec<SpillTraffic>) {
        let dir = TempDir::new(tag);
        let store = SharedStore::with_capacity_and_disk(half, &dir).unwrap();
        let mut s = session_over(store.clone(), None);
        s.bind("V", gnmf_input()).unwrap();
        s.run(&init).unwrap();
        s.checkpoint(&names, 0).unwrap();
        let per_step: Vec<SpillTraffic> = (1..=3)
            .map(|phase| {
                let spill = s.run(&step).unwrap().trace.spill;
                s.checkpoint(&names, phase).unwrap();
                spill
            })
            .collect();
        let got = (
            bits(&s.env_value("W").unwrap()),
            bits(&s.env_value("H").unwrap()),
        );
        assert_eq!(got, healthy, "{tag}");
        let stats = store.stats();
        assert_eq!((stats.dropped, stats.load_failures), (0, 0), "{tag}");
        (store.spill_traffic(), per_step)
    };

    let (first, steps) = capped_run("gnmf-halved-1");
    assert!(first.spills > 0 && first.loads > 0, "{first:?}");
    for (i, spill) in steps.iter().enumerate() {
        assert!(
            spill.loads <= 3,
            "step {i} reloaded a name twice: {spill:?}"
        );
    }
    assert_eq!(capped_run("gnmf-halved-2"), (first, steps));
}

/// Seeds of the mutation sweep that failed once, run before the sweep
/// whatever its range becomes (ROADMAP aim 3: every bug found becomes a
/// pinned seed). Both hit `CURRENT` while it was an unframed
/// `"<manifest> <sum>"` line: `…0000` flipped a bit of the sum and `…000d`
/// cut the line short, and either way recovery skipped the newest
/// manifest the line still named, although it was intact — resuming from
/// phase 2, not 3 (17 of the first 256 seeds did the same).
const MUTATION_REGRESSIONS: &[u64] = &[0x6d75_0000, 0x6d75_000d];
const MUTATION_SWEEP: Range<u64> = 0x6d75_0000..0x6d75_0100;

/// Every file under `root`, as a path relative to it, sorted.
fn data_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![PathBuf::new()];
    while let Some(rel) = dirs.pop() {
        for entry in fs::read_dir(root.join(&rel)).unwrap() {
            let entry = entry.unwrap();
            let path = rel.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn copy_data_dir(from: &Path, to: &Path) {
    for file in data_files(from) {
        fs::create_dir_all(to.join(&file).parent().unwrap()).unwrap();
        fs::copy(from.join(&file), to.join(&file)).unwrap();
    }
}

/// The snapshots of a data dir, newest first: each one's phase and the
/// files it stands on (its manifest and the blobs it names). Read by
/// `load_latest` from a copy, each manifest removed once read.
fn snapshots_of(dir: &Path) -> Vec<(usize, Vec<PathBuf>)> {
    let copy = TempDir::new("gnmf-snapshots");
    copy_data_dir(dir, &copy);
    let disk = DiskTier::open(&copy).unwrap();
    let mut snapshots = Vec::new();
    while let Some(m) = disk.load_latest().unwrap() {
        let manifest = PathBuf::from(format!("manifest-{:06}.txt", m.seq));
        fs::remove_file(copy.join(&manifest)).unwrap();
        let blobs = m
            .entries
            .iter()
            .map(|e| Path::new("blocks").join(format!("{}.blk", e.hash)));
        snapshots.push((m.phase as usize, blobs.chain([manifest]).collect()));
    }
    snapshots
}

/// A seeded mutation of any one file of a checkpointed GNMF data dir —
/// a blob, a manifest, `CURRENT` or a plan file, truncated at a seeded
/// length or with one seeded bit flipped — is caught by that file's frame.
/// `list_plans` and `recover` return, never panic; the plan survives
/// unless it was the file hit; and the run resumes from the newest
/// snapshot the file is not part of (replays when there is none) and ends
/// on the healthy bits.
#[test]
fn seeded_mutations_of_any_file_resume_from_the_newest_intact_snapshot() {
    let template = TempDir::new("gnmf-mutate");
    let healthy = gnmf_healthy(&template);
    let script = "A = random(A, 8, 8)\noutput(A)\n";
    DiskTier::open(&template)
        .unwrap()
        .put_plan(1, script)
        .unwrap();
    let files = data_files(&template);
    let snapshots = snapshots_of(&template);
    let phases: Vec<usize> = snapshots.iter().map(|s| s.0).collect();
    assert_eq!(phases, [3, 2], "compaction keeps the last two snapshots");
    for name in ["CURRENT", "plans/0000000000000001.dml"] {
        assert!(files.contains(&PathBuf::from(name)), "{name} in {files:?}");
    }

    let mut hit = vec![0; files.len()];
    for seed in MUTATION_REGRESSIONS.iter().copied().chain(MUTATION_SWEEP) {
        let mut rng = SplitMix64::new(seed);
        let pick = rng.below(files.len());
        let file = &files[pick];
        hit[pick] += 1;
        let dir = TempDir::new(&format!("gnmf-mutate-{seed:x}"));
        copy_data_dir(&template, &dir);
        let mut bytes = fs::read(dir.join(file)).unwrap();
        let what = if rng.chance(0.5) {
            let cut = rng.below(bytes.len());
            bytes.truncate(cut);
            format!("cut to {cut} bytes")
        } else {
            let bit = rng.below(8 * bytes.len());
            bytes[bit / 8] ^= 1 << (bit % 8);
            format!("bit {bit} flipped")
        };
        fs::write(dir.join(file), bytes).unwrap();
        let ctx = format!("seed {seed:#x}: {} {what}", file.display());

        let resume = AssertUnwindSafe(|| {
            let plans = DiskTier::open(&dir).unwrap().list_plans();
            let plans = plans.unwrap_or_else(|e| panic!("{ctx}: list_plans: {e}"));
            let plan_hit = file.starts_with("plans");
            assert_eq!(plans.is_empty(), plan_hit, "{ctx}: {plans:?}");
            let store = SharedStore::with_disk(&dir).unwrap();
            store
                .recover()
                .unwrap_or_else(|e| panic!("{ctx}: recover: {e}"));
            let mut s = session_over(store, None);
            let run = gnmf_cfg().run_checkpointed(&mut s, &gnmf_input());
            let run = run.unwrap_or_else(|e| panic!("{ctx}: run: {e}"));
            let intact = snapshots.iter().find(|(_, on)| !on.contains(file));
            assert_eq!(run.resumed_from, intact.map_or(0, |s| s.0), "{ctx}");
            assert_eq!(run.resumed_from + run.ran_iterations, 3, "{ctx}");
            let got = (
                bits(&s.env_value("W").unwrap()),
                bits(&s.env_value("H").unwrap()),
            );
            assert_eq!(got, healthy, "{ctx}: bits");
        });
        if catch_unwind(resume).is_err() {
            panic!("{ctx}: failed (pin the seed in MUTATION_REGRESSIONS once fixed)");
        }
    }
    assert!(
        hit.iter().all(|&n| n > 0),
        "some file never mutated: {files:?} {hit:?}"
    );
}
