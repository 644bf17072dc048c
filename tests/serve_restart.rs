//! dmac-served kill-and-restart sweep (PR 6 satellite).
//!
//! A durable server (`data_dir` set) must:
//!
//! * recover its named tenant matrices **bit-for-bit** and re-warm its
//!   plan cache from persisted scripts after a clean restart;
//! * survive the classic crash window — blobs written, manifest not
//!   published (modelled by deleting the newest manifest out from under
//!   the `CURRENT` pointer) — by falling back to the previous snapshot;
//! * detect truncated block files and corrupt checksums at recovery
//!   and cleanly degrade to an older snapshot or an empty store, then
//!   keep serving new work normally;
//! * pay, for the snapshot after each store job, only for what that job
//!   changed: the matrices it did not touch are not written again.

use std::fs;
use std::path::{Path, PathBuf};

use dmac::serve::{Client, Server, ServerConfig};

mod common;
use common::{blob_files, TempDir};

fn durable_server(dir: &Path) -> Server {
    Server::start(ServerConfig {
        pool: 1,
        data_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// `X = (B·B) ∘ B` from a seeded random B — no loads, so its plan-cache
/// key is stable across restarts and its value is seed-deterministic.
const STORE_X: &str = "B = random(B, 48, 48)\nC = B %*% B\nX = C * B\nstore(X)\n";
/// A second tenant matrix under a different name.
const STORE_Y: &str = "R = random(R, 32, 32)\nY = R + R\nstore(Y)\n";

/// A third tenant matrix, and a job that stores different bits under `X`.
const STORE_Z: &str = "S = random(S, 40, 24)\nZ = S * S\nstore(Z)\n";
const REWRITE_X: &str = "B = random(B, 48, 48)\nX = B + B\nstore(X)\n";

fn u64_at(stats: &dmac::serve::Json, path: &[&str]) -> u64 {
    let mut v = stats;
    for k in path {
        v = v.get(k).unwrap_or_else(|| panic!("stats missing {k}"));
    }
    v.as_u64()
        .unwrap_or_else(|| panic!("{path:?} not a number"))
}

#[test]
fn restart_recovers_matrices_and_plan_cache_bit_for_bit() {
    let dir = TempDir::new("clean");

    // First life: store two matrices, remember X's exact bits.
    let server = durable_server(&dir);
    let mut cli = Client::connect(server.addr()).expect("connect");
    let first = cli.submit("t1", STORE_X, None).expect("store X");
    assert!(!first.plan_cached);
    cli.submit("t1", STORE_Y, None).expect("store Y");
    let (rows, cols, bits) = cli.fetch("X").expect("fetch X");
    let stats = cli.stats().expect("stats");
    assert_eq!(u64_at(&stats, &["durability", "recovered"]), 0);
    assert!(u64_at(&stats, &["durability", "checkpoints"]) >= 2);
    assert_eq!(u64_at(&stats, &["durability", "persist_errors"]), 0);
    cli.shutdown().expect("shutdown");
    server.wait();

    // Second life over the same directory.
    let server = durable_server(&dir);
    let mut cli = Client::connect(server.addr()).expect("connect");
    let stats = cli.stats().expect("stats");
    assert_eq!(
        stats
            .get("durability")
            .and_then(|d| d.get("enabled"))
            .and_then(|b| b.as_bool()),
        Some(true)
    );
    assert_eq!(u64_at(&stats, &["durability", "recovered"]), 2, "X and Y");
    assert!(
        u64_at(&stats, &["durability", "plans_warmed"]) >= 2,
        "both submitted scripts must re-warm the plan cache"
    );

    // Recovered matrix is bit-for-bit what the first life served.
    let (r2, c2, b2) = cli.fetch("X").expect("fetch recovered X");
    assert_eq!((r2, c2), (rows, cols));
    assert_eq!(b2, bits, "recovered X must be bit-identical");

    // Resubmitting the same script hits the warmed cache and produces
    // the identical trace digest.
    let again = cli.submit("t1", STORE_X, None).expect("resubmit X");
    assert!(again.plan_cached, "restart must re-warm the plan cache");
    assert_eq!(again.golden_fnv, first.golden_fnv);

    cli.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn crash_between_blob_write_and_manifest_publish_falls_back() {
    let dir = TempDir::new("torn-publish");

    let server = durable_server(&dir);
    let mut cli = Client::connect(server.addr()).expect("connect");
    cli.submit("t1", STORE_X, None).expect("store X");
    cli.submit("t1", STORE_Y, None).expect("store Y");
    let (_, _, bits) = cli.fetch("X").expect("fetch X");
    cli.shutdown().expect("shutdown");
    server.wait();

    // Model the crash window: the newest manifest never became durable,
    // while its blobs (and the CURRENT pointer naming it) did.
    let newest = {
        let mut manifests: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("manifest-"))
            })
            .collect();
        manifests.sort();
        manifests.pop().expect("at least one manifest")
    };
    fs::remove_file(&newest).unwrap();

    let server = durable_server(&dir);
    let mut cli = Client::connect(server.addr()).expect("connect");
    let stats = cli.stats().expect("stats");
    assert_eq!(
        u64_at(&stats, &["durability", "recovered"]),
        2,
        "previous snapshot still holds X and Y"
    );
    let (_, _, b2) = cli.fetch("X").expect("fetch X after torn publish");
    assert_eq!(b2, bits, "fallback snapshot must serve identical bits");
    cli.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn truncated_and_corrupt_blobs_degrade_cleanly() {
    for (tag, wreck) in [
        (
            "truncate",
            (|data: &mut Vec<u8>| {
                data.truncate(data.len() / 2);
            }) as fn(&mut Vec<u8>),
        ),
        ("corrupt", |data: &mut Vec<u8>| {
            let mid = data.len() / 2;
            data[mid] ^= 0xA5;
        }),
    ] {
        let dir = TempDir::new(&format!("wreck-{tag}"));

        let server = durable_server(&dir);
        let mut cli = Client::connect(server.addr()).expect("connect");
        cli.submit("t1", STORE_X, None).expect("store X");
        cli.shutdown().expect("shutdown");
        server.wait();

        // Every block file is damaged: no snapshot can verify.
        for entry in fs::read_dir(dir.join("blocks")).unwrap().flatten() {
            let path = entry.path();
            let mut data = fs::read(&path).unwrap();
            wreck(&mut data);
            fs::write(&path, data).unwrap();
        }

        // The server must still start — with an empty store — and serve.
        let server = durable_server(&dir);
        let mut cli = Client::connect(server.addr()).expect("connect");
        let stats = cli.stats().expect("stats");
        assert_eq!(
            u64_at(&stats, &["durability", "recovered"]),
            0,
            "{tag}: damaged blobs must not recover"
        );
        let err = cli.fetch("X").expect_err("X must be gone");
        assert!(err.to_string().contains("unbound"), "{tag}: {err}");
        // New work proceeds normally and re-establishes durability.
        cli.submit("t1", STORE_X, None)
            .unwrap_or_else(|e| panic!("{tag}: resubmit after damage: {e}"));
        let (_, _, bits) = cli.fetch("X").expect("fetch rebuilt X");
        assert!(!bits.is_empty());
        cli.shutdown().expect("shutdown");
        server.wait();
    }
}

/// `checkpoint_store` snapshots every name the server holds after every
/// store job. With three names held and a job that rewrites one, the job's
/// snapshot writes that one payload: the other two blob files are the same
/// files afterwards (inode, mtime), and a restart serves all three
/// bit-for-bit.
#[test]
fn a_store_job_persists_only_what_it_changed() {
    let dir = TempDir::new("delta");
    let server = durable_server(&dir);
    let mut cli = Client::connect(server.addr()).expect("connect");
    for script in [STORE_X, STORE_Y, STORE_Z] {
        cli.submit("t1", script, None).expect("store");
    }
    let old_x = cli.fetch("X").expect("fetch X");
    let before = blob_files(&dir);
    assert_eq!(before.len(), 3, "one blob per name: {before:?}");
    let written =
        |cli: &mut Client| u64_at(&cli.stats().expect("stats"), &["store", "spill_bytes"]);
    let bytes_before = written(&mut cli);

    cli.submit("t1", REWRITE_X, None).expect("rewrite X");
    let after = blob_files(&dir);
    for (name, file) in &before {
        assert_eq!(after.get(name), Some(file), "{name} was written again");
    }
    let fresh: Vec<_> = after
        .iter()
        .filter(|(n, _)| !before.contains_key(*n))
        .collect();
    assert_eq!(fresh.len(), 1, "exactly X's new blob: {after:?}");
    // A blob file is its payload in a 22-byte frame.
    assert_eq!(written(&mut cli) - bytes_before, fresh[0].1 .2 - 22);

    let served: Vec<_> = ["X", "Y", "Z"]
        .iter()
        .map(|n| cli.fetch(n).expect("fetch"))
        .collect();
    assert_ne!(served[0], old_x, "the job did change X");
    cli.shutdown().expect("shutdown");
    server.wait();

    let server = durable_server(&dir);
    let mut cli = Client::connect(server.addr()).expect("connect");
    let stats = cli.stats().expect("stats");
    assert_eq!(u64_at(&stats, &["durability", "recovered"]), 3);
    for (name, want) in ["X", "Y", "Z"].iter().zip(&served) {
        assert_eq!(&cli.fetch(name).expect("fetch recovered"), want, "{name}");
    }
    cli.shutdown().expect("shutdown");
    server.wait();
}
