//! Server-side analyzer integration: scripts with error-severity
//! diagnostics are rejected at admission (before planning or queueing),
//! warnings ride along on `explain`, and the `lint` request works
//! without touching any session state.

use dmac::cluster::codec::Value;
use dmac::serve::protocol::{code, WireDiagnostic};
use dmac::serve::{Client, ClientError, Server, ServerConfig};

fn test_server() -> Server {
    Server::start(ServerConfig {
        pool: 2,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

const CLEAN: &str = "A1 = random(A1, 16, 16)\nB1 = A1 %*% A1\nstore(B1)\n";

/// Parses fine, but stores nothing — an error-severity lint (E004).
const NO_OUTPUTS: &str = "A2 = random(A2, 16, 16)\nB2 = A2 %*% A2\n";

/// Clean but with advisory lints: a redundant transpose and a trivial
/// identity.
const WARNY: &str = "A3 = random(A3, 16, 16)\nB3 = A3.t.t * 1\nstore(B3)\n";

/// Diagnostics as one JSON array, through the protocol's encoder.
fn encoded(diags: Vec<WireDiagnostic>) -> String {
    let mut out = String::new();
    diags.render(&mut out);
    out
}

#[test]
fn admission_rejects_lint_errors_and_counts_them() {
    let server = test_server();
    let mut cli = Client::connect(server.addr()).expect("connect");

    // Clean script goes through.
    let res = cli.submit("s", CLEAN, None).expect("clean submit");
    assert_eq!(res.stored, vec!["B1".to_string()]);

    // Lint-rejected script comes back with the LINT error code and the
    // diagnostic headline in the message.
    let err = cli.submit("s", NO_OUTPUTS, None).unwrap_err();
    match err {
        ClientError::Server { code: c, message } => {
            assert_eq!(c, code::LINT);
            assert!(message.contains("E004"), "message: {message}");
        }
        other => panic!("unexpected error {other:?}"),
    }

    // The rejection is visible in the stats counters.
    let stats = cli.stats().expect("stats");
    let counters = stats.get("counters").expect("counters object");
    assert_eq!(
        counters.get("rejected_lint").and_then(|v| v.as_u64()),
        Some(1)
    );
    assert_eq!(counters.get("completed").and_then(|v| v.as_u64()), Some(1));

    cli.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn lint_request_reports_without_executing() {
    let server = test_server();
    let mut cli = Client::connect(server.addr()).expect("connect");

    let (ok, diags) = cli.lint(CLEAN).expect("lint clean");
    assert!(ok);
    assert!(diags.is_empty(), "unexpected diagnostics {diags:?}");

    let (ok, diags) = cli.lint(NO_OUTPUTS).expect("lint bad");
    assert!(!ok);
    assert!(
        diags.iter().any(|d| d.code == "E004"),
        "diagnostics {diags:?}"
    );

    let (ok, diags) = cli.lint(WARNY).expect("lint warny");
    assert!(ok, "warnings must not flip the verdict: {diags:?}");
    let codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
    assert!(codes.contains(&"W103"), "missing W103 in {codes:?}");
    assert!(codes.contains(&"W104"), "missing W104 in {codes:?}");
    // Spans survive the wire round trip.
    let w103 = diags.iter().find(|d| d.code == "W103").unwrap();
    assert!(w103.line.is_some() && w103.start.is_some() && w103.end.is_some());

    // Nothing was executed or admitted by linting.
    let stats = cli.stats().expect("stats");
    let counters = stats.get("counters").expect("counters object");
    assert_eq!(counters.get("submitted").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(
        counters.get("rejected_lint").and_then(|v| v.as_u64()),
        Some(0)
    );

    cli.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn explain_carries_advisory_diagnostics() {
    let server = test_server();
    let mut cli = Client::connect(server.addr()).expect("connect");

    let (text, diags) = cli.explain_full("s", WARNY).expect("explain");
    assert!(!text.is_empty());
    assert!(
        diags.iter().any(|d| d.code == "W103"),
        "diagnostics {diags:?}"
    );
    assert!(diags.iter().all(|d| d.severity != "error"));

    // Explain of a lint-broken script is refused outright.
    let err = cli.explain_full("s", NO_OUTPUTS).unwrap_err();
    match err {
        ClientError::Server { code: c, .. } => assert_eq!(c, code::LINT),
        other => panic!("unexpected error {other:?}"),
    }

    cli.shutdown().expect("shutdown");
    server.wait();
}

/// One diagnostic spelling end to end: the analyzer's diagnostics of a
/// script with an error and warnings, as wire diagnostics and encoded,
/// are byte for byte the server's `lint` reply decoded and re-encoded.
#[test]
fn local_and_served_diagnostics_encode_alike() {
    let server = test_server();
    let mut cli = Client::connect(server.addr()).expect("connect");

    // E004 (nothing stored) beside W103 and W104.
    let script = "A4 = random(A4, 16, 16)\nB4 = A4.t.t * 1\n";
    let local = dmac::analyze::lint_script(script).diagnostics;
    let severities: Vec<&str> = local.iter().map(|d| d.severity.name()).collect();
    assert!(severities.contains(&"error") && severities.contains(&"warning"));
    let local = encoded(local.iter().map(WireDiagnostic::from).collect());

    let (ok, served) = cli.lint(script).expect("lint");
    assert!(!ok);
    assert_eq!(encoded(served), local);

    cli.shutdown().expect("shutdown");
    server.wait();
}
