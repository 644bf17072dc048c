//! dmac-serve end-to-end: concurrent clients must produce results
//! byte-identical to serial single-`Session` runs, the plan cache must
//! hit, conflicting writers must be rejected, and shutdown must drain.

use std::net::TcpStream;

use dmac::core::{Session, SharedStore};
use dmac::lang::normalize::fnv1a;
use dmac::lang::parse_script;
use dmac::serve::protocol::{code, read_frame, write_frame, Request, Response};
use dmac::serve::smoke::{gnmf_script, pagerank_script, run_smoke, SmokeConfig};
use dmac::serve::{Client, Server, ServerConfig};

/// A script with a unique store name — pipelined same-session
/// submissions of it queue up instead of conflicting.
fn unique_script(tag: usize) -> String {
    format!(
        "B{tag} = random(B{tag}, 64, 64)\n\
         C{tag} = B{tag} %*% B{tag}\n\
         store(C{tag})\n"
    )
}

fn test_server(pool: usize) -> Server {
    Server::start(ServerConfig {
        pool,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// Submit `script` under each of `sessions`, queued behind a burst the
/// single executor of `server` is still working through, and return the
/// writers' responses in the order they arrived.
///
/// That the executor *was* busy is proved, not hoped for. Everything goes
/// down one connection — `stats`, the burst, the writers, `stats` — so one
/// reader thread admits it in that order and the one executor runs the
/// queue in that order. If the second `stats`, taken after the last
/// writer's admission, counts fewer completions over the first than the
/// burst has jobs, the first writer had not started, and so still held its
/// claim, when every later writer was admitted. A round in which the burst
/// did drain first (the reader thread was starved) decides nothing and is
/// repeated with twice the burst; the verdict never depends on scheduling.
fn submit_behind_a_busy_executor(
    server: &Server,
    tag: usize,
    script: &str,
    sessions: &[&str],
) -> Vec<Response> {
    let send = |conn: &mut TcpStream, req: Request| write_frame(conn, &req.to_json()).unwrap();
    let completed = |stats: &dmac::cluster::jsonin::Json| {
        let counters = stats.get("counters").expect("counters");
        counters.get("completed").and_then(|c| c.as_u64()).unwrap()
    };
    let mut next_tag = tag;
    let mut burst = 4;
    loop {
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        send(&mut conn, Request::Stats);
        for _ in 0..burst {
            let submit = Request::Submit {
                session: "burst".into(),
                script: unique_script(next_tag),
                deadline_ms: None,
            };
            send(&mut conn, submit);
            next_tag += 1;
        }
        for session in sessions {
            let submit = Request::Submit {
                session: session.to_string(),
                script: script.into(),
                deadline_ms: None,
            };
            send(&mut conn, submit);
        }
        send(&mut conn, Request::Stats);

        let (mut counts, mut writers) = (Vec::new(), Vec::new());
        for _ in 0..2 + burst + sessions.len() {
            let payload = read_frame(&mut conn).unwrap().expect("response");
            match Response::from_json(&payload).unwrap() {
                Response::Stats(doc) => counts.push(completed(&doc)),
                Response::Result(r) if r.stored[0].starts_with('C') => {}
                writer => writers.push(writer),
            }
        }
        if counts[1] - counts[0] < burst as u64 {
            return writers;
        }
        burst *= 2;
    }
}

#[test]
fn concurrent_clients_match_serial_session_bit_for_bit() {
    let server = test_server(4);
    let cfg = SmokeConfig {
        addr: server.addr().to_string(),
        clients: 4,
        repeats: 3,
        min_hit_rate: 0.5,
        shutdown_at_end: true,
        ..SmokeConfig::default()
    };
    let report = run_smoke(&cfg);
    assert!(
        report.ok(),
        "smoke failures:\n{}",
        report.failures.join("\n")
    );
    assert_eq!(report.completed, 4 * 3 * 2);
    assert!(report.hit_rate >= 0.5, "hit rate {}", report.hit_rate);
    // run_smoke sent shutdown; wait() returning proves the drain ends.
    server.wait();
}

/// `--real-cluster`: every tenant session runs on real `dmac-workerd`
/// processes, and results are still byte-identical to the serial
/// single-`Session` (simulator) replay inside `run_smoke`.
#[test]
fn real_cluster_server_matches_serial_session_bit_for_bit() {
    let server = Server::start(ServerConfig {
        pool: 2,
        real_cluster: true,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let cfg = SmokeConfig {
        addr: server.addr().to_string(),
        clients: 2,
        repeats: 2,
        min_hit_rate: 0.5,
        shutdown_at_end: true,
        ..SmokeConfig::default()
    };
    let report = run_smoke(&cfg);
    assert!(
        report.ok(),
        "smoke failures:\n{}",
        report.failures.join("\n")
    );
    assert_eq!(report.completed, 2 * 2 * 2);
    server.wait();
}

#[test]
fn server_traces_equal_a_local_session_run() {
    let server = test_server(2);
    let mut cli = Client::connect(server.addr()).expect("connect");

    let script = gnmf_script(0);
    let res = cli.submit("solo", &script, None).expect("submit");
    assert!(!res.plan_cached);
    assert_eq!(res.stored, vec!["Hc0".to_string(), "Wc0".to_string()]);

    // The same script in a plain local Session must produce the exact
    // same execution trace (digested) and simulated time.
    let defaults = ServerConfig::default();
    let mut sess = Session::builder()
        .workers(defaults.workers)
        .local_threads(defaults.local_threads)
        .block_size(defaults.block_size)
        .seed(defaults.seed)
        .store(SharedStore::new())
        .build();
    let program = parse_script(&script).unwrap().program;
    let local = sess.run(&program).expect("local run");
    assert_eq!(res.golden_fnv, fnv1a(&local.trace.golden_summary()));
    // sim_sec blends modelled comm with *measured* compute, so it is
    // informational, not replay-stable — only sanity-check it.
    assert!(res.sim_sec > 0.0 && local.sim.total_sec() > 0.0);

    // Second submission: cached plan, identical trace.
    let res2 = cli.submit("solo", &script, None).expect("resubmit");
    assert!(res2.plan_cached);
    assert_eq!(res2.golden_fnv, res.golden_fnv);

    // PageRank interleaved in another session doesn't disturb it.
    let mut other = Client::connect(server.addr()).expect("connect");
    other
        .submit("other", &pagerank_script(1), None)
        .expect("pagerank");
    let res3 = cli.submit("solo", &script, None).expect("resubmit");
    assert_eq!(res3.golden_fnv, res.golden_fnv);

    cli.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn concurrent_store_writers_conflict() {
    let server = test_server(1);
    let script = "Xs = random(Xs, 16, 16)\nYs = Xs + Xs\nstore(Ys)\n";
    let responses = submit_behind_a_busy_executor(&server, 100, script, &["w1", "w2"]);

    // Two responses, in whatever order they complete: exactly one
    // result and one `conflict` error.
    let mut kinds = Vec::new();
    for response in responses {
        match response {
            Response::Result(_) => kinds.push("ok"),
            Response::Error { code: c, .. } => {
                assert_eq!(c, code::CONFLICT);
                kinds.push("conflict");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    kinds.sort();
    assert_eq!(kinds, ["conflict", "ok"]);

    let mut cli = Client::connect(server.addr()).expect("connect");
    cli.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn protocol_errors_and_backpressure_reject_cleanly() {
    let server = Server::start(ServerConfig {
        pool: 1,
        queue_cap: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");

    // Garbage frame, or a submit whose deadline is not a count of
    // milliseconds → proto error, connection stays usable.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let bad_deadline = r#"{"type":"submit","session":"s","script":"x","deadline_ms":"250"}"#;
    for frame in ["not json", bad_deadline] {
        write_frame(&mut raw, frame).unwrap();
        let payload = read_frame(&mut raw).unwrap().expect("response");
        match Response::from_json(&payload).unwrap() {
            Response::Error { code: c, .. } => assert_eq!(c, code::PROTO, "{frame}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    // Parse failure → parse error.
    write_frame(
        &mut raw,
        &Request::Submit {
            session: "s".into(),
            script: "A = random(".into(),
            deadline_ms: None,
        }
        .to_json(),
    )
    .unwrap();
    let payload = read_frame(&mut raw).unwrap().expect("response");
    match Response::from_json(&payload).unwrap() {
        Response::Error { code: c, .. } => assert_eq!(c, code::PARSE),
        other => panic!("unexpected {other:?}"),
    }

    // Saturate: queue_cap 1 + pool 1, so a fast pipelined burst must
    // draw at least one `busy` (all jobs share one session, so none
    // run concurrently and the queue genuinely fills).
    let mut results = 0;
    let mut busy = 0;
    let burst = 12;
    for i in 0..burst {
        write_frame(
            &mut raw,
            &Request::Submit {
                session: "s".into(),
                script: unique_script(200 + i),
                deadline_ms: None,
            }
            .to_json(),
        )
        .unwrap();
    }
    for _ in 0..burst {
        let payload = read_frame(&mut raw).unwrap().expect("response");
        match Response::from_json(&payload).unwrap() {
            Response::Result(_) => results += 1,
            Response::Error { code: c, .. } => {
                assert_eq!(c, code::BUSY);
                busy += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(results + busy, burst);
    assert!(results >= 1, "at least one job must run");
    assert!(busy >= 1, "queue of 1 must reject part of a burst of 12");

    // Fetch of a missing matrix → unbound.
    let mut cli = Client::connect(server.addr()).expect("connect");
    match cli.fetch("nope") {
        Err(dmac::serve::ClientError::Server { code: c, .. }) => {
            assert_eq!(c, code::UNBOUND)
        }
        other => panic!("unexpected {other:?}"),
    }

    // A 0 ms deadline on a queued job → deadline rejection.
    match cli.submit("s", &gnmf_script(8), Some(0)) {
        Err(dmac::serve::ClientError::Server { code: c, .. }) => {
            assert_eq!(c, code::DEADLINE)
        }
        Ok(_) => {} // raced to execution before the check — acceptable
        other => panic!("unexpected {other:?}"),
    }

    cli.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn submissions_after_shutdown_are_rejected() {
    let server = test_server(2);
    let mut cli = Client::connect(server.addr()).expect("connect");
    cli.submit("s", &pagerank_script(0), None).expect("submit");
    server.shutdown_now();
    match cli.submit("s", &pagerank_script(0), None) {
        Err(dmac::serve::ClientError::Server { code: c, .. }) => {
            assert_eq!(c, code::SHUTTING_DOWN)
        }
        Err(dmac::serve::ClientError::Io(_)) | Err(dmac::serve::ClientError::Proto(_)) => {
            // The drain may already have closed the socket.
        }
        Ok(_) => panic!("submission accepted after shutdown"),
    }
    server.wait();
}

/// The plan-cache key must include input *density class*, not just
/// scheme: a plan costed for a dense `Dx` must not be reused after the
/// same name, same shape, same scheme is re-stored with different
/// sparsity (the matmul strategy crossover may have moved).
#[test]
fn plan_cache_misses_when_input_density_class_changes() {
    let server = test_server(1);
    let mut cli = Client::connect(server.addr()).expect("connect");

    // Dense producer and its structurally identical all-zero twin:
    // Add vs Sub plan identically, so the stored Dx keeps the same
    // scheme either way — only the density class flips (dense ↔ empty).
    let dense_producer = "Ax = random(Ax, 32, 32)\nDx = Ax + Ax\nstore(Dx)\n";
    let zero_producer = "Ax = random(Ax, 32, 32)\nDx = Ax - Ax\nstore(Dx)\n";
    let consumer = "Dx = load(Dx, 32, 32, 1.0)\nFx = Dx + Dx\noutput(Fx)\n";

    cli.submit("den", dense_producer, None).expect("produce");
    let first = cli.submit("den", consumer, None).expect("consume");
    assert!(!first.plan_cached, "first consumption must plan");

    // Reach the steady state where the consumer's key stops moving
    // (the first run may promote Dx's cached placement once).
    let mut steady = false;
    for _ in 0..3 {
        if cli
            .submit("den", consumer, None)
            .expect("consume")
            .plan_cached
        {
            steady = true;
            break;
        }
    }
    assert!(steady, "consumer plan should become cacheable");

    // Overwrite Dx with the all-zero twin: same shape, same scheme,
    // density class dense → empty. The cached dense-costed plan must
    // NOT be reused.
    cli.submit("den", zero_producer, None)
        .expect("re-produce zero");
    let sparse = cli.submit("den", consumer, None).expect("consume zero");
    assert!(
        !sparse.plan_cached,
        "dense-cached plan must not be reused for an empty input"
    );

    // Restoring the dense value restores the original key → cache hit.
    cli.submit("den", dense_producer, None)
        .expect("re-produce dense");
    let back = cli.submit("den", consumer, None).expect("consume dense");
    assert!(back.plan_cached, "original dense key must hit again");

    cli.shutdown().expect("shutdown");
    server.wait();
}

/// Exhaustive model check of the write-claim state machine: all 90
/// interleavings of three conflicting writers' {claim, release} event
/// pairs, each replayed against both the real `SharedStore` and a
/// one-variable reference model. Every schedule must agree with the
/// model (a claim succeeds iff no other writer holds the name), and
/// every schedule must leave the name claimable afterwards.
#[test]
fn claim_state_machine_agrees_with_model_under_all_interleavings() {
    // Build every ordering of 6 events where each job's claim precedes
    // its release: 6! / 2^3 = 90 schedules.
    fn extend(progress: [u8; 3], seq: &mut Vec<(usize, bool)>, out: &mut Vec<Vec<(usize, bool)>>) {
        if progress == [2, 2, 2] {
            out.push(seq.clone());
            return;
        }
        for j in 0..3 {
            if progress[j] < 2 {
                let mut next = progress;
                next[j] += 1;
                seq.push((j, progress[j] == 1));
                extend(next, seq, out);
                seq.pop();
            }
        }
    }
    let mut schedules = Vec::new();
    extend([0; 3], &mut Vec::new(), &mut schedules);
    assert_eq!(schedules.len(), 90);

    let name = vec!["X".to_string()];
    for schedule in &schedules {
        let store = SharedStore::new();
        let mut holder: Option<usize> = None;
        for &(job, is_release) in schedule {
            if is_release {
                store.release_writes(job as u64);
                if holder == Some(job) {
                    holder = None;
                }
            } else {
                let got = store.claim_writes(&name, job as u64).is_ok();
                let model = holder.is_none();
                assert_eq!(got, model, "schedule {schedule:?}, job {job}");
                if got {
                    holder = Some(job);
                }
            }
        }
        // Every schedule drains its claims completely.
        store
            .claim_writes(&name, 99)
            .unwrap_or_else(|e| panic!("schedule {schedule:?} leaked a claim: {e}"));
    }
}

/// Three pipelined writers to one store name: exactly one wins, the two
/// losers get typed `conflict` rejections, and the winner's trace is
/// bit-identical to a serial single-`Session` replay of the script.
#[test]
fn three_conflicting_writers_serialize_or_reject() {
    let server = test_server(1);

    let script = "Xr = random(Xr, 24, 24)\nYr = Xr %*% Xr\nstore(Yr)\n";
    let responses = submit_behind_a_busy_executor(&server, 300, script, &["w1", "w2", "w3"]);

    let mut oks = Vec::new();
    let mut conflicts = 0;
    for response in responses {
        match response {
            Response::Result(r) => oks.push(r.golden_fnv),
            Response::Error { code: c, .. } => {
                assert_eq!(c, code::CONFLICT);
                conflicts += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(oks.len(), 1, "exactly one writer must win");
    assert_eq!(conflicts, 2);

    // The winner must be bit-identical to a serial replay.
    let defaults = ServerConfig::default();
    let mut sess = Session::builder()
        .workers(defaults.workers)
        .local_threads(defaults.local_threads)
        .block_size(defaults.block_size)
        .seed(defaults.seed)
        .store(SharedStore::new())
        .build();
    let program = parse_script(script).unwrap().program;
    let local = sess.run(&program).expect("serial replay");
    assert_eq!(oks[0], fnv1a(&local.trace.golden_summary()));

    // With the claim released, a later writer to the same name succeeds
    // and reproduces the same trace digest.
    let mut cli = Client::connect(server.addr()).expect("connect");
    let again = cli.submit("w4", script, None).expect("post-drain submit");
    assert_eq!(again.golden_fnv, oks[0]);

    cli.shutdown().expect("shutdown");
    server.wait();
}

/// Admission-time memory gating: against a store whose byte budget no
/// GNMF plan can fit, the submit is rejected with the typed `memory`
/// code before anything executes, and the rejection is counted in
/// stats. An unbounded server runs the same script and reports its
/// certified peak in the result.
#[test]
fn memory_gate_rejects_oversized_plans_at_admission() {
    let server = Server::start(ServerConfig {
        pool: 1,
        store_capacity: Some(1024),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut cli = Client::connect(server.addr()).expect("connect");

    match cli.submit("gated", &gnmf_script(0), None) {
        Err(dmac::serve::ClientError::Server { code: c, message }) => {
            assert_eq!(c, "memory");
            assert!(
                message.contains("certified peak") && message.contains("1024"),
                "{message}"
            );
        }
        other => panic!("expected a memory rejection, got {other:?}"),
    }

    let stats = cli.stats().expect("stats");
    let rejected = stats
        .get("counters")
        .and_then(|c| c.get("rejected_memory"))
        .and_then(|v| v.as_u64());
    assert_eq!(rejected, Some(1));
    // Nothing executed: no completions, no exec errors.
    let completed = stats
        .get("counters")
        .and_then(|c| c.get("completed"))
        .and_then(|v| v.as_u64());
    assert_eq!(completed, Some(0));
    cli.shutdown().expect("shutdown");
    server.wait();

    // The same script on an unbounded server executes and carries its
    // certified peak on the wire.
    let server = test_server(1);
    let mut cli = Client::connect(server.addr()).expect("connect");
    let res = cli.submit("free", &gnmf_script(0), None).expect("submit");
    let peak = res.certified_peak.expect("result carries certified peak");
    assert!(peak > 1024, "GNMF peak {peak} should dwarf the tiny budget");
    cli.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn explain_matches_local_explain() {
    let server = test_server(1);
    let mut cli = Client::connect(server.addr()).expect("connect");
    let script = pagerank_script(2);
    let remote = cli.explain("s", &script).expect("explain");

    let defaults = ServerConfig::default();
    let sess = Session::builder()
        .workers(defaults.workers)
        .local_threads(defaults.local_threads)
        .block_size(defaults.block_size)
        .seed(defaults.seed)
        .build();
    let program = parse_script(&script).unwrap().program;
    let local = sess.explain(&program).expect("local explain");
    assert_eq!(remote, local);
    assert!(
        remote.contains("sparsity (predicted):"),
        "explain must surface the predicted-sparsity channel:\n{remote}"
    );

    cli.shutdown().expect("shutdown");
    server.wait();
}

/// File descriptors this process holds on sockets bound to local TCP
/// `port` — the server's listener plus its side of every accepted
/// connection. Matching socket inodes against `/proc/self/net/tcp` keeps
/// the count blind to whatever sibling tests have open.
#[cfg(target_os = "linux")]
fn server_socket_fds(port: u16) -> usize {
    let suffix = format!(":{port:04X}");
    let table = std::fs::read_to_string("/proc/self/net/tcp").expect("read /proc/self/net/tcp");
    let inodes: Vec<String> = table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            (f.len() > 9 && f[1].ends_with(&suffix)).then(|| format!("socket:[{}]", f[9]))
        })
        .collect();
    std::fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .flatten()
        .filter_map(|e| std::fs::read_link(e.path()).ok())
        .filter(|target| inodes.iter().any(|i| target.as_os_str() == i.as_str()))
        .count()
}

/// A finished client must cost a long-lived server nothing: the accept
/// loop reaps its kept stream clone and thread handle, so the server's
/// socket fd count returns to where it started (the listener alone)
/// instead of growing by one CLOSE_WAIT socket per client ever served.
#[cfg(target_os = "linux")]
#[test]
fn finished_connections_release_their_fds() {
    let server = test_server(1);
    let port = server.addr().port();
    let start = server_socket_fds(port);
    assert!(start >= 1, "the listener itself must be counted");

    // 8 × 25 clients, each: connect, one round-trip, close.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..25 {
                    let mut cli = Client::connect(server.addr()).expect("connect");
                    cli.stats().expect("stats round-trip");
                }
            });
        }
    });

    // Reaping happens on the accept loop's next turns (≤ 10 ms apart).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut now = server_socket_fds(port);
    while now > start && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
        now = server_socket_fds(port);
    }
    assert_eq!(
        now, start,
        "server still holds {now} socket fds after 200 finished clients (started at {start})"
    );

    Client::connect(server.addr())
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    server.wait();
}
