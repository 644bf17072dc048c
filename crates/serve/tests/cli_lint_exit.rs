//! Regression test: `dmac-cli lint` must exit non-zero on any
//! error-severity diagnostic in **both** output modes. The `--json`
//! path once derived its exit code separately from the rendered path;
//! both now flow through `dmac_serve::protocol::lint_exit_ok` over the
//! diagnostics actually printed, and this test pins the behaviour at
//! the process boundary, and that a local and a served lint print the
//! same JSON.

use std::path::PathBuf;
use std::process::Command;

/// Write a script to a unique temp file and return its path.
fn script_file(tag: &str, body: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("dmac-lint-{}-{tag}.dmac", std::process::id()));
    std::fs::write(&path, body).expect("write temp script");
    path
}

fn lint(args: &[&str]) -> (bool, String) {
    lint_in("", args)
}

/// `dmac-cli lint`, through the server at `addr` unless it is empty.
fn lint_in(addr: &str, args: &[&str]) -> (bool, String) {
    let remote: &[&str] = if addr.is_empty() {
        &[]
    } else {
        &["--addr", addr]
    };
    let out = Command::new(env!("CARGO_BIN_EXE_dmac-cli"))
        .arg("lint")
        .args(remote)
        .args(args)
        .output()
        .expect("run dmac-cli");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn error_diagnostics_fail_in_both_output_modes() {
    // E002: `C` is read before any assignment defines it.
    let bad = script_file("bad", "A = load(A, 4, 4, 1.0)\nB = A %*% C\noutput(B)\n");
    let path = bad.to_str().unwrap();

    let (ok, rendered) = lint(&[path]);
    assert!(!ok, "rendered mode must exit non-zero on errors");
    assert!(rendered.contains("error[E002]"), "{rendered}");

    let (ok, json) = lint(&["--json", path]);
    assert!(!ok, "--json mode must exit non-zero on errors");
    assert!(json.contains("\"severity\":\"error\""), "{json}");
    assert!(json.contains("\"code\":\"E002\""), "{json}");

    let _ = std::fs::remove_file(bad);
}

#[test]
fn warnings_alone_exit_zero_in_both_output_modes() {
    // W101 dead store (`B` is overwritten unread), but no errors.
    let warn = script_file(
        "warn",
        "A = load(A, 4, 4, 1.0)\nB = A + A\nB = A - A\noutput(B)\n",
    );
    let path = warn.to_str().unwrap();

    let (ok, rendered) = lint(&[path]);
    assert!(ok, "warnings must not fail the rendered mode: {rendered}");
    assert!(rendered.contains("warning["), "{rendered}");

    let (ok, json) = lint(&["--json", path]);
    assert!(ok, "warnings must not fail --json mode: {json}");
    assert!(json.contains("\"severity\":\"warning\""), "{json}");
    assert!(!json.contains("\"severity\":\"error\""), "{json}");

    let _ = std::fs::remove_file(warn);
}

#[test]
fn local_and_served_lints_print_the_same_json() {
    // E004: nothing is stored; W103 and W104 beside it.
    let mixed = script_file("mixed", "A = random(A, 16, 16)\nB = A.t.t * 1\n");
    let path = mixed.to_str().unwrap();
    let server = dmac_serve::Server::start(dmac_serve::ServerConfig {
        pool: 1,
        ..dmac_serve::ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr().to_string();

    let (ok, local) = lint(&["--json", path]);
    assert!(!ok, "{local}");
    for code in ["\"E004\"", "\"W103\"", "\"W104\""] {
        assert!(local.contains(code), "{code} in {local}");
    }
    assert_eq!(lint_in(&addr, &["--json", path]), (false, local));

    server.shutdown_now();
    server.wait();
    let _ = std::fs::remove_file(mixed);
}
