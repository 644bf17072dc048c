//! Durability integration tests: the crash matrix of PR 6.
//!
//! The load-bearing claims exercised here:
//!
//! * a deterministic crash injected at **every** durability boundary
//!   ([`CrashPoint::ALL`]) during a checkpointed GNMF or PageRank run
//!   leaves on-disk state from which a restarted driver recovers and
//!   finishes **bit-for-bit identical** to an uninterrupted run;
//! * resuming from a snapshot skips the already-completed iterations
//!   (recovery is cheaper than full lineage replay);
//! * torn or corrupt block files are detected by checksum and degrade
//!   the restart to an older snapshot — or to full lineage replay —
//!   never to wrong answers;
//! * a crash during recovery itself is harmless (recovery is read-only);
//! * runs whose working set exceeds the RAM budget spill to disk and
//!   reload transparently, with the traffic metered on the trace's
//!   third channel, and still produce bit-identical results.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use dmac::apps::{Gnmf, PageRank};
use dmac::cluster::{CrashPoint, FaultPlan};
use dmac::core::{CoreError, DiskTier, Session, SharedStore};
use dmac::matrix::BlockedMatrix;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "dmac-durability-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

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

fn pagerank_healthy(dir: &Path) -> Vec<u64> {
    let store = SharedStore::with_disk(dir).unwrap();
    let mut s = session_over(store, None);
    let run = pagerank_cfg()
        .run_checkpointed(&mut s, &pagerank_input())
        .unwrap();
    assert_eq!(run.resumed_from, 0);
    bits(&s.env_value("rank").unwrap())
}

#[test]
fn gnmf_crash_matrix_recovers_bit_for_bit() {
    let healthy = gnmf_healthy(&temp_dir("gnmf-healthy"));
    let cfg = gnmf_cfg();
    let v = gnmf_input();
    for point in CrashPoint::ALL {
        let dir = temp_dir(&format!("gnmf-{}", point.name()));
        let store = SharedStore::with_disk(&dir).unwrap();
        let mut s = session_over(store, Some(FaultPlan::crash(point, 0)));
        let first = cfg.run_checkpointed(&mut s, &v);
        // Points that never arise in this run (e.g. MidRecovery — a fresh
        // store never recovers) let the run complete; every fired crash
        // must surface as the typed error, not a panic or wrong data.
        if let Err(e) = &first {
            assert!(
                matches!(e, CoreError::InjectedCrash(_)),
                "{}: unexpected error {e}",
                point.name()
            );
        }
        drop(s);

        // "Restart the process": fresh store over the same directory.
        let store = SharedStore::with_disk(&dir).unwrap();
        store.recover().unwrap();
        let mut s = session_over(store, None);
        let run = cfg.run_checkpointed(&mut s, &v).unwrap();
        assert_eq!(
            run.resumed_from + run.ran_iterations,
            cfg.iterations,
            "{}: driver must account for every iteration",
            point.name()
        );
        let got = (
            bits(&s.env_value("W").unwrap()),
            bits(&s.env_value("H").unwrap()),
        );
        assert_eq!(
            got,
            healthy,
            "crash at {} must recover bit-for-bit",
            point.name()
        );
    }
}

#[test]
fn pagerank_crash_matrix_recovers_bit_for_bit() {
    let healthy = pagerank_healthy(&temp_dir("pr-healthy"));
    let cfg = pagerank_cfg();
    let adj = pagerank_input();
    for point in CrashPoint::ALL {
        let dir = temp_dir(&format!("pr-{}", point.name()));
        let store = SharedStore::with_disk(&dir).unwrap();
        let mut s = session_over(store, Some(FaultPlan::crash(point, 0)));
        let first = cfg.run_checkpointed(&mut s, &adj);
        if let Err(e) = &first {
            assert!(
                matches!(e, CoreError::InjectedCrash(_)),
                "{}: unexpected error {e}",
                point.name()
            );
        }
        drop(s);

        let store = SharedStore::with_disk(&dir).unwrap();
        store.recover().unwrap();
        let mut s = session_over(store, None);
        let run = cfg.run_checkpointed(&mut s, &adj).unwrap();
        assert_eq!(run.resumed_from + run.ran_iterations, cfg.iterations);
        assert_eq!(
            bits(&s.env_value("rank").unwrap()),
            healthy,
            "crash at {} must recover bit-for-bit",
            point.name()
        );
    }
}

/// A crash during the *third* checkpoint leaves the phase-1 snapshot
/// durable; the restarted driver must resume there — replaying fewer
/// iterations than a full lineage replay — and still match exactly.
#[test]
fn resume_skips_completed_iterations() {
    let healthy = gnmf_healthy(&temp_dir("gnmf-skip-healthy"));
    let cfg = gnmf_cfg();
    let v = gnmf_input();
    let dir = temp_dir("gnmf-skip");
    let store = SharedStore::with_disk(&dir).unwrap();
    // Occurrences are 0-based: index 2 is the third publish, i.e. the
    // checkpoint that would have made phase 2 durable.
    let plan = FaultPlan::crash(CrashPoint::BeforeManifestPublish, 2);
    let mut s = session_over(store, Some(plan));
    let err = cfg.run_checkpointed(&mut s, &v).unwrap_err();
    assert!(matches!(err, CoreError::InjectedCrash(_)), "{err}");
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

/// A crash during recovery itself is harmless: recovery is read-only,
/// so simply recovering again succeeds and yields the full snapshot.
#[test]
fn crash_during_recovery_is_retryable() {
    let dir = temp_dir("gnmf-midrecovery");
    let healthy = gnmf_healthy(&dir);

    let store = SharedStore::with_disk(&dir).unwrap();
    store.arm_crashes(&FaultPlan::crash(CrashPoint::MidRecovery, 0));
    let err = store.recover().unwrap_err();
    assert!(matches!(err, CoreError::InjectedCrash(_)), "{err}");
    drop(store);

    let store = SharedStore::with_disk(&dir).unwrap();
    store.recover().unwrap();
    let mut s = session_over(store, None);
    let run = gnmf_cfg().run_checkpointed(&mut s, &gnmf_input()).unwrap();
    assert_eq!(run.resumed_from, 3, "full snapshot: nothing left to run");
    assert_eq!(run.ran_iterations, 0);
    let got = (
        bits(&s.env_value("W").unwrap()),
        bits(&s.env_value("H").unwrap()),
    );
    assert_eq!(got, healthy);
}

/// Corrupting a blob unique to the newest snapshot (the final W) makes
/// that manifest unusable; recovery must fall back to the previous
/// snapshot and the driver recompute only the lost iteration.
#[test]
fn corrupt_blob_falls_back_to_previous_snapshot() {
    let dir = temp_dir("gnmf-corrupt-one");
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

/// A manifest is outside input, and its blob hashes become file names: an
/// entry naming `../../stolen` must not make recovery verify — and then
/// load — a file outside the data dir, however intact that file is. The
/// forged newest manifest (the one `CURRENT` names) is skipped and
/// recovery falls back to the previous snapshot.
#[test]
fn manifest_entry_naming_a_path_is_skipped() {
    let outer = temp_dir("gnmf-escape");
    let dir = outer.join("data");
    gnmf_healthy(&dir);

    let disk = DiskTier::open(&dir).unwrap();
    let latest = disk.load_latest().unwrap().expect("snapshot exists");
    assert_eq!(latest.phase, 3);
    let w = latest.entries.iter().find(|e| e.name == "W").unwrap();
    let blob = dir.join("blocks").join(format!("{}.blk", w.hash));
    fs::copy(blob, outer.join("stolen.blk")).unwrap();

    let real = format!("manifest-{:06}.txt", latest.seq);
    let forged = fs::read_to_string(dir.join(&real))
        .unwrap()
        .replace(&w.hash, "../../stolen")
        .replace(&format!("seq {}\n", latest.seq), "seq 999\n")
        .replace("phase 3\n", "phase 99\n");
    assert!(forged.contains("../../stolen") && forged.contains("phase 99"));
    fs::write(dir.join("manifest-000999.txt"), &forged).unwrap();
    let sum = dmac::cluster::transport::wire::Digest::of(forged.as_bytes());
    fs::write(
        dir.join("CURRENT"),
        format!("manifest-000999.txt {sum:016x}\n"),
    )
    .unwrap();

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
        let dir = temp_dir(&format!("gnmf-wreck-{tag}"));
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

/// A data directory an FNV-era build wrote — `DMBK1` blobs named and
/// sealed by FNV-1a, `CURRENT` and a `dmac-plan v1` script summed by it —
/// recovers nothing: the same policy as a `DMDM1` payload. `load_latest`
/// answers `Ok(None)`, the store recovers empty without a panic, the run
/// replays its lineage to the healthy bits, and the old script is skipped.
#[test]
fn a_data_dir_of_the_fnv_format_recovers_nothing() {
    let dir = temp_dir("gnmf-fnv-era");
    let healthy = gnmf_healthy(&dir);

    // Re-frame every blob as the old build did, under its old name, and
    // point every manifest at the old names.
    let mut renames = Vec::new();
    for entry in fs::read_dir(dir.join("blocks")).unwrap() {
        let path = entry.unwrap().path();
        let framed = fs::read(&path).unwrap();
        assert_eq!(&framed[..6], b"DMBK2\n");
        let payload = &framed[14..framed.len() - 8];
        let mut old = b"DMBK1\n".to_vec();
        old.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        old.extend_from_slice(payload);
        old.extend_from_slice(&fnv1a(payload).to_le_bytes());
        let name = format!("{:016x}", fnv1a(payload));
        fs::write(dir.join("blocks").join(format!("{name}.blk")), old).unwrap();
        fs::remove_file(&path).unwrap();
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        renames.push((stem, name));
    }
    let mut newest = String::new();
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let file = path.file_name().unwrap().to_string_lossy().to_string();
        if file.starts_with("manifest-") {
            let mut text = fs::read_to_string(&path).unwrap();
            for (new, old) in &renames {
                text = text.replace(new, old);
            }
            fs::write(&path, &text).unwrap();
            newest = newest.max(file);
        }
    }
    let body = fs::read(dir.join(&newest)).unwrap();
    let current = format!("{newest} {:016x}\n", fnv1a(&body));
    fs::write(dir.join("CURRENT"), current).unwrap();
    let script = "A = random(A, 8, 8)\noutput(A)\n";
    let plan = format!("dmac-plan v1 {:016x}\n{script}", fnv1a(script.as_bytes()));
    fs::create_dir_all(dir.join("plans")).unwrap();
    fs::write(dir.join("plans").join("0000000000000001.dml"), plan).unwrap();

    let disk = DiskTier::open(&dir).unwrap();
    assert!(disk.load_latest().unwrap().is_none());
    assert!(disk.list_plans().is_empty());
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

/// Squeeze the working set below the RAM budget: the store must spill
/// to disk instead of dropping entries, reload transparently, meter the
/// traffic on the trace's third channel — and the results must still be
/// bit-identical to an unconstrained run.
#[test]
fn spill_roundtrip_preserves_bits_and_is_metered() {
    let healthy = gnmf_healthy(&temp_dir("gnmf-spill-healthy"));

    let dir = temp_dir("gnmf-spill");
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
    use dmac::apps::gnmf::GNMF_CHECKPOINT_NAMES;
    use dmac::core::trace::SpillTraffic;
    use dmac::lang::Program;

    let uncapped = SharedStore::with_disk(temp_dir("gnmf-halved-whole")).unwrap();
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
        let store = SharedStore::with_capacity_and_disk(half, temp_dir(tag)).unwrap();
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
