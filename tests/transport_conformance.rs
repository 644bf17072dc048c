//! Transport conformance: the real multi-process cluster backend must be
//! **byte-exact** against the in-process simulator oracle.
//!
//! Every application in the suite runs twice — once on the default
//! simulator backend and once on real `dmac-workerd` processes over
//! local TCP sockets — and the two runs must agree on everything the
//! paper's evaluation measures:
//!
//! * **results** are bit-for-bit identical across backends (both sides
//!   execute the same shared kernels in the same order, so any
//!   divergence is a transport bug, not floating-point noise);
//! * **per-step wire bytes**: the payload bytes that physically crossed
//!   a socket (`StepTrace::transport_bytes`) equal the simulator's
//!   metered wire bytes (`StepTrace::wire_bytes`) exactly, step by
//!   step — the Table-2 communication accounting is real, not modelled;
//! * **topology**: no tile payload is relayed through the coordinator
//!   (`relay_bytes == 0`), and whenever a run moved tiles across hosts
//!   they rode worker-to-worker links (`peer_bytes > 0`);
//! * **worker state**: gathering every output matrix back from the
//!   worker processes (`Session::value_physical`) reproduces the oracle
//!   value bit-for-bit, proving the processes hold exactly the tiles
//!   the placement said they should.
//!
//! Any divergence inside a run surfaces earlier still, as a typed
//! `ClusterError::TransportConformance` from the cluster's per-primitive
//! receipt checks.

use dmac::apps::{
    CollaborativeFiltering, Gnmf, LinearRegression, PageRank, SvdLanczos, TriangleCount,
};
use dmac::cluster::transport::frame;
use dmac::cluster::transport::proto::Reply;
use dmac::cluster::{
    Cluster, ClusterConfig, DistMatrix, KillAt, PartitionScheme, SocketOptions, SocketTransport,
    TransportStats,
};
use dmac::core::baselines::SystemKind;
use dmac::core::engine::ExecReport;
use dmac::core::session::SessionBuilder;
use dmac::core::{CoreError, Session, SharedStore};
use dmac::lang::{Expr, Program};
use dmac::matrix::BlockedMatrix;

const BLOCK: usize = 8;
const WORKERS: usize = 3;

/// The session shape every test here shares, backend still to choose.
fn builder() -> SessionBuilder {
    Session::builder()
        .system(SystemKind::Dmac)
        .workers(WORKERS)
        .local_threads(2)
        .block_size(BLOCK)
        .seed(7)
}

fn sim_session() -> Session {
    builder().build()
}

fn socket_session() -> Session {
    builder()
        .socket_transport(SocketOptions::default())
        .try_build()
        .expect("worker processes must launch")
}

/// f64 bit patterns of a gathered matrix (exact comparison, no epsilon).
fn bits(m: &BlockedMatrix) -> Vec<u64> {
    m.to_dense().data().iter().map(|x| x.to_bits()).collect()
}

/// FNV-1a-style fold of `bits` into `h`: a result's digest.
fn fold(h: u64, bits: impl IntoIterator<Item = u64>) -> u64 {
    (bits.into_iter()).fold(h, |h, b| (h ^ b).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Run one app on both backends and assert the full conformance
/// contract. `run` executes the app and returns its report, its matrix
/// output handles, and its scalar outputs; their digest — every matrix's
/// bits, then every scalar's — is `pinned` on both backends, so a result
/// keeps its bits across changes to how a plan reaches it.
fn conforms<F>(name: &str, pinned: u64, run: F)
where
    F: Fn(&mut Session) -> (ExecReport, Vec<Expr>, Vec<f64>),
{
    let mut sim = sim_session();
    let (sim_report, sim_handles, sim_scalars) = run(&mut sim);
    let digest = (sim_handles.iter())
        .map(|h| bits(&sim.value(*h).unwrap()))
        .chain([sim_scalars.iter().map(|x| x.to_bits()).collect()])
        .fold(0xCBF2_9CE4_8422_2325, fold);
    assert_eq!(digest, pinned, "{name}: result bits moved: {digest:#x}");

    let mut sock = socket_session();
    assert_eq!(sock.transport_name(), "socket");
    assert!(sock.transport_is_physical());
    let (sock_report, sock_handles, sock_scalars) = run(&mut sock);

    // Results: bit-for-bit identical across backends.
    assert_eq!(sim_scalars.len(), sock_scalars.len());
    for (i, (a, b)) in sim_scalars.iter().zip(&sock_scalars).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name}: scalar {i} diverged across backends ({a} vs {b})"
        );
    }
    for (a, b) in sim_handles.iter().zip(&sock_handles) {
        let ma = sim.value(*a).unwrap();
        let mb = sock.value(*b).unwrap();
        assert_eq!(
            bits(&ma),
            bits(&mb),
            "{name}: results diverged across backends"
        );
    }

    // Per-step wire accounting: every byte the simulator metered was
    // physically shipped, and nothing more.
    assert!(!sock_report.trace.steps.is_empty());
    for st in &sock_report.trace.steps {
        assert_eq!(
            st.transport_bytes, st.wire_bytes,
            "{name} step {} ({}): socket shipped {} payload bytes, simulator metered {}",
            st.step, st.kind, st.transport_bytes, st.wire_bytes
        );
    }
    // ... and both backends metered the same per-step wire volume.
    assert_eq!(sim_report.trace.steps.len(), sock_report.trace.steps.len());
    for (a, b) in sim_report.trace.steps.iter().zip(&sock_report.trace.steps) {
        assert_eq!(
            a.wire_bytes, b.wire_bytes,
            "{name} step {} ({}): backends metered different wire bytes",
            a.step, a.kind
        );
    }

    // One data plane: tile payload never transits the coordinator, and
    // every cross-host move rode a worker-to-worker link. (Each logical
    // worker is its own host here, so any metered tile payload crossed
    // hosts.)
    let stats = sock.transport_stats();
    assert_eq!(
        stats.relay_bytes, 0,
        "{name}: tile payload relayed through the coordinator"
    );
    if stats.payload_bytes > 0 {
        assert!(
            stats.peer_bytes > 0,
            "{name}: {} payload bytes moved across hosts, none over peer links",
            stats.payload_bytes
        );
    }

    // Physical gather: the worker processes hold exactly the oracle's
    // tiles. (The simulator has no second copy; it returns None.)
    for h in &sock_handles {
        let oracle = sock.value(*h).unwrap();
        let physical = sock
            .value_physical(*h)
            .unwrap()
            .expect("socket backend gathers from workers");
        assert_eq!(
            bits(&oracle),
            bits(&physical),
            "{name}: worker-held state diverged from oracle"
        );
    }
    if let Some(h) = sim_handles.first() {
        assert!(sim.value_physical(*h).unwrap().is_none());
    }

    // Clean shutdown: every worker exits on request; leaks are an error.
    sock.shutdown_transport()
        .expect("workers must exit cleanly");
}

#[test]
fn gnmf_is_byte_exact_on_sockets() {
    let cfg = Gnmf {
        rows: 24,
        cols: 18,
        sparsity: 0.4,
        rank: 4,
        iterations: 2,
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, BLOCK, 5);
    conforms("gnmf", 0x8da2_337d_e22a_c602, |s| {
        let (report, h) = cfg.run(s, v.clone()).unwrap();
        (report, vec![h.w, h.h], vec![])
    });
}

#[test]
fn pagerank_is_byte_exact_on_sockets() {
    let nodes = 48;
    let g = dmac::data::powerlaw_graph(nodes, 320, BLOCK, 5);
    let cfg = PageRank {
        nodes,
        link_sparsity: 320.0 / (nodes as f64 * nodes as f64),
        damping: 0.85,
        iterations: 3,
    };
    conforms("pagerank", 0x1ccf_e844_1547_e47c, |s| {
        let (report, h) = cfg.run(s, &g).unwrap();
        (report, vec![h.rank], vec![])
    });
}

#[test]
fn cf_is_byte_exact_on_sockets() {
    let cfg = CollaborativeFiltering {
        items: 40,
        users: 64,
        sparsity: 0.1,
    };
    let r = dmac::data::uniform_sparse(cfg.items, cfg.users, cfg.sparsity, BLOCK, 7);
    conforms("cf", 0xd4ea_cade_8de9_dabf, |s| {
        let (report, h) = cfg.run(s, r.clone()).unwrap();
        (report, vec![h.predict], vec![])
    });
}

#[test]
fn linreg_is_byte_exact_on_sockets() {
    let cfg = LinearRegression {
        rows: 48,
        features: 16,
        sparsity: 0.2,
        lambda: 1e-6,
        iterations: 2,
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.features, cfg.sparsity, BLOCK, 9);
    let y = BlockedMatrix::from_fn(cfg.rows, 1, BLOCK, |i, _| (i % 7) as f64 / 7.0).unwrap();
    conforms("linreg", 0xfc8b_c14c_b188_05a3, |s| {
        let (report, h) = cfg.run(s, v.clone(), y.clone()).unwrap();
        (report, vec![h.w], vec![])
    });
}

#[test]
fn svd_is_byte_exact_on_sockets() {
    let cfg = SvdLanczos {
        rows: 48,
        cols: 24,
        sparsity: 0.2,
        rank: 3,
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, BLOCK, 11);
    conforms("svd", 0x316f_d580_fb6e_2d57, |s| {
        let (report, spectrum) = cfg.run(s, v.clone()).unwrap();
        (report, vec![], spectrum)
    });
}

/// A script that stores a transposed value: `Y = X.t` persists `Xᵀ`, a
/// matrix no program operator makes, beside a cell-wise operator and a
/// product over transposed reads. The stored value's bits, as the next
/// program would load them, are pinned like a result's.
#[test]
fn a_transposed_store_is_byte_exact_on_sockets() {
    let script = "A = load(A, 24, 16, 0.3)\n\
                  B = load(B, 16, 20, 1.0)\n\
                  X = A %*% B\n\
                  Y = X.t\n\
                  Z = B.t * (X.t %*% A)\n\
                  store(Y)\n\
                  output(Z)\n";
    let program = dmac::lang::parse_script(script).unwrap().program;
    let z = program.outputs()[1].0;
    let z = Expr {
        id: z.id,
        transposed: z.transposed,
    };
    let a = dmac::data::uniform_sparse(24, 16, 0.3, BLOCK, 17);
    let b = BlockedMatrix::from_fn(16, 20, BLOCK, |i, j| ((i * 7 + j) % 11) as f64 / 4.0).unwrap();
    conforms("transposed store", 0x4c31_3f63_deac_052a, |s| {
        s.bind("A", a.clone()).unwrap();
        s.bind("B", b.clone()).unwrap();
        let report = s.run(&program).unwrap();
        let stored = bits(&s.env_value("Y").unwrap());
        // The stored value travels as the run's one scalar: its digest.
        let stored = f64::from_bits(fold(0, stored));
        (report, vec![z], vec![stored])
    });
}

#[test]
fn triangles_is_byte_exact_on_sockets() {
    let nodes = 32;
    let cfg = TriangleCount {
        nodes,
        sparsity: 0.15,
    };
    let adj = dmac::data::uniform_sparse(nodes, nodes, cfg.sparsity, BLOCK, 13);
    conforms("triangles", 0x6334_3d4c_8601_b7df, |s| {
        let (report, count) = cfg.run(s, &adj).unwrap();
        (report, vec![], vec![count])
    });
}

/// A lone aligned operator ships as the one-instruction `fused` command
/// and the worker runs it as the `Block` method. `A + B` over two sparse
/// matrices on a 9-block grid (under the planner's 32-block fusion gate,
/// and `sum` is an output besides) must stay sparse on the workers — the
/// seal hashes the representation — and so must its `scale`, whose
/// constant rides the command's f64 body. A sub-gate `scale` / `scale` /
/// `add` over *dense* tiles is `pagerank_is_byte_exact_on_sockets`
/// already (`rank` is 1 × 48: 6 blocks), so it is not repeated here.
#[test]
fn lone_sparse_operators_are_byte_exact_on_sockets() {
    let n = 24;
    let a = dmac::data::uniform_sparse(n, n, 0.1, BLOCK, 21);
    let b = dmac::data::uniform_sparse(n, n, 0.1, BLOCK, 22);
    conforms("sparse add + scale", 0x0453_eb1b_3132_d1ed, |s| {
        s.bind("A", a.clone()).unwrap();
        s.bind("B", b.clone()).unwrap();
        let mut p = dmac::lang::Program::new();
        let (ea, eb) = (p.load("A", n, n, 0.1), p.load("B", n, n, 0.1));
        let sum = p.add(ea, eb).unwrap();
        let half = p.scale_const(sum, -0.5).unwrap();
        p.output(sum);
        p.output(half);
        let report = s.run(&p).unwrap();
        let kinds: Vec<&str> = report.trace.steps.iter().map(|st| &*st.kind).collect();
        assert!(!kinds.iter().any(|k| k.starts_with("Fused")), "{kinds:?}");
        for e in [sum, half] {
            let held = s.value_physical(e).unwrap().unwrap_or(s.value(e).unwrap());
            assert!(held.iter_blocks().all(|(_, _, t)| t.is_sparse()));
        }
        (report, vec![sum, half], vec![])
    });
}

/// One routing command per source host. In a broadcast on 4 hosts every
/// host keeps its own tiles *and* pushes them to the other three: one
/// `xfer` each, which installs the first and pushes the rest. Once the
/// source is resident that is one move exchange and one seal — 2 rounds,
/// 4 commands + 4 replies each: 16 frames besides heartbeats.
#[test]
fn a_broadcast_is_one_routing_command_per_source_host() {
    let sockets = SocketTransport::launch(4, SocketOptions::default())
        .expect("4 worker processes must launch");
    let config = ClusterConfig {
        workers: 4,
        local_threads: 1,
        ..ClusterConfig::default()
    };
    let mut cl = Cluster::with_transport(config, Box::new(sockets));
    let m = BlockedMatrix::from_fn(32, 16, BLOCK, |i, j| (i * 16 + j) as f64).unwrap();
    let rows = cl.load(&m, PartitionScheme::Row);
    assert!((0..4).all(|w| !rows.worker_blocks(w).is_empty()));
    // The first broadcast installs `rows` on the workers.
    cl.broadcast(rows.clone(), "install").unwrap();

    let frames = |s: TransportStats| s.frames - s.heartbeats;
    let before = cl.transport_stats();
    let everywhere = cl.broadcast(rows.clone(), "resident").unwrap();
    let after = cl.transport_stats();
    assert_eq!(
        after.rounds - before.rounds,
        2,
        "one move exchange, one seal"
    );
    assert_eq!(
        frames(after) - frames(before),
        16,
        "one xfer per source host"
    );
    assert!(after.peer_bytes > before.peer_bytes);
    let physical = cl.gather_physical(&everywhere).unwrap().expect("socket");
    assert_eq!(bits(&physical.to_blocked().unwrap()), bits(&m));
    cl.shutdown_transport().expect("workers must exit cleanly");
}

/// A plan's `free` costs no round of its own: its `free` commands ride at
/// the head of the next exchange. A steady-state 10-iteration PageRank on
/// 4 workers — the repo benchmark's workload at its quick scale — is 43
/// coordinator rounds (the session's sweep at the end of the run is one of
/// them), where it was 77 while each of its 32 `free` steps was an
/// exchange of its own, with the same payload (the rank broadcasts). The
/// fresh `rank0` is no longer installed (8 192 bytes then) but generated
/// by the workers that own it, in the exchange the install took: each of
/// the 4 hosts gets a seal of it beside its `install`, so 4 commands and 4
/// replies more than the 784 frames besides heartbeats of then. Since the
/// planner places `random` sources, `rank0` is generated broadcast — every
/// host makes every tile — instead of generated hash-placed and then
/// broadcast: the broadcast's two rounds go (45 → 43), and with them 24
/// frames (792 → 768) and its 24 576 payload bytes, `rank0` sent to the
/// three hosts that lacked each tile (245 760 → 221 184). Since a fused
/// step folds its RMM products, each iteration's walk `rank %*% link` and
/// its `* 0.85 + teleport` are one posted stage: one round per iteration
/// goes (43 → 33), and with it a command and a reply per host each for the
/// multiply and for its seal (768 → 528 frames); the payload is the same.
/// What else moves `frame_bytes` from run to run is not the plan: the
/// heartbeats that fall inside a run, and rids and sequence numbers that
/// gain a decimal digit.
#[test]
fn a_plan_free_costs_no_round() {
    let (nodes, edges, block) = (1024, 16_384, 32);
    let g = dmac::data::powerlaw_graph(nodes, edges, block, 5);
    let cfg = PageRank {
        nodes,
        link_sparsity: edges as f64 / (nodes as f64 * nodes as f64),
        damping: 0.85,
        iterations: 10,
    };
    let mut s = Session::builder()
        .workers(4)
        .local_threads(1)
        .block_size(block)
        .seed(7)
        .socket_transport(SocketOptions::default())
        .try_build()
        .expect("4 worker processes must launch");
    // The first run installs `link` and `D`; the next three are steady.
    cfg.run(&mut s, &g).unwrap();
    // A heartbeat frame is `{"t":"hb","host":h}`: one length for every
    // host of a 4-worker cluster, counted in `frames` and `frame_bytes`.
    let hb = Reply::Hb { host: 0 }.encode(None).len();
    assert!((1..4).all(|host| Reply::Hb { host }.encode(None).len() == hb));
    let hb_bytes = frame::framed_len(hb);
    let frames = |t: TransportStats| t.frames - t.heartbeats;
    let frame_bytes = |t: TransportStats| t.frame_bytes - t.heartbeats * hb_bytes;
    let mut steady = Vec::new();
    for _ in 0..3 {
        let before = s.transport_stats();
        cfg.run(&mut s, &g).unwrap();
        let after = s.transport_stats();
        assert_eq!(after.rounds - before.rounds, 33, "rounds per run");
        assert_eq!(frames(after) - frames(before), 528, "frames per run");
        assert_eq!(after.payload_bytes - before.payload_bytes, 221_184);
        assert_eq!(after.install_bytes - before.install_bytes, 0);
        steady.push(frame_bytes(after) - frame_bytes(before));
    }
    // Heartbeats aside, a steady run frames the same commands and replies
    // as the last, but their headers spell rids and sequence numbers in
    // decimal, which only ever widen: a run's bytes never fall below the
    // last's (they rise by the digits a crossing adds, 45 408 → 45 640 B
    // at the second steady run on one measured session, then level off).
    assert!(
        steady.windows(2).all(|w| w[0] <= w[1]),
        "frame bytes per steady run, heartbeats aside: {steady:?}"
    );
    s.shutdown_transport().expect("workers must exit cleanly");
}

/// A long session must not grow the workers' memory, and a run must not
/// ship what the workers already hold. Every `PageRank::run` re-binds
/// `link` and `D` with the content they already have: the bind is a
/// compare, the shards stay where the first run's plan put them, and from
/// the second run on nothing is installed — the fresh `rank0` is
/// generated by the workers that own it, where it was the one value
/// installed before they could — and
/// the only payload on the wire is the rank vector's broadcasts. The
/// previous run's `rank` is superseded and has to be released on the
/// worker processes, not merely dropped at the coordinator, so the
/// resident set levels off — while every run stays bit-identical to the
/// simulator's, read back from the workers' own shards.
#[test]
fn repeated_runs_do_not_strand_values_on_the_workers() {
    let nodes = 48;
    let g = dmac::data::powerlaw_graph(nodes, 320, BLOCK, 5);
    let cfg = PageRank {
        nodes,
        link_sparsity: 320.0 / (nodes as f64 * nodes as f64),
        damping: 0.85,
        iterations: 3,
    };
    let build = |socket: bool| {
        let b = Session::builder()
            .workers(4)
            .local_threads(2)
            .block_size(BLOCK)
            .seed(7);
        if socket {
            b.socket_transport(SocketOptions::default())
                .try_build()
                .expect("4 worker processes must launch")
        } else {
            b.build()
        }
    };
    let (mut sim, mut sock) = (build(false), build(true));
    let mut resident = Vec::new();
    let link_bytes = dmac::data::row_normalize(&g).unwrap().actual_bytes() as u64;
    for run in 1..=6 {
        let before = sock.transport_stats();
        let (_, hs) = cfg.run(&mut sim, &g).unwrap();
        let (report, hk) = cfg.run(&mut sock, &g).unwrap();
        assert_eq!(
            bits(&sim.value(hs.rank).unwrap()),
            bits(&sock.value(hk.rank).unwrap()),
            "run {run}: socket diverged from the simulator"
        );
        let physical = sock.value_physical(hk.rank).unwrap().expect("socket");
        assert_eq!(
            bits(&physical),
            bits(&sim.value(hs.rank).unwrap()),
            "run {run}: worker-held rank diverged from the oracle"
        );
        let after = sock.transport_stats();
        resident.push(after.resident_values);

        let installed = after.install_bytes - before.install_bytes;
        let payload = after.payload_bytes - before.payload_bytes;
        let rank0 = cfg.initial_rank(&hk, BLOCK, 7).unwrap().actual_bytes() as u64;
        let steps = &report.trace.steps;
        let moved = |kind: &str| -> u64 {
            let of_kind = steps.iter().filter(|st| st.kind == kind);
            of_kind.map(|st| st.wire_bytes).sum()
        };
        if run == 1 {
            // A first bind: `link` and `D` are installed, `link` is
            // partitioned; `rank0` (as large as `D`) is generated.
            assert_eq!(installed, link_bytes + rank0, "run 1");
            assert!(moved("partition") > 0);
        } else {
            assert_eq!(
                installed, 0,
                "run {run}: nothing is installed, not even the fresh rank0"
            );
            assert_eq!(
                moved("partition"),
                0,
                "run {run}: link is not partitioned again"
            );
            assert!(moved("broadcast") > 0);
            assert_eq!(
                payload,
                moved("broadcast"),
                "run {run}: the rank broadcasts are all that crosses the wire"
            );
        }
    }
    assert!(
        resident[5] <= resident[1],
        "resident values per run must level off: {resident:?}"
    );
    assert!(resident[5] > 0, "link, D and rank stay resident");
    assert_eq!(sim.transport_stats().resident_values, 0);
    sock.shutdown_transport()
        .expect("workers must exit cleanly");
}

/// GNMF's `W0` and `H0` are `random` sources: on a steady run (the bound
/// `V` a compare, its shards where the first run left them) the workers
/// generate both factors' tiles where they own them, every generation
/// sealed against the oracle in the exchange that makes it, and nothing
/// is installed. The factors are bit-identical to the simulator's, read
/// back from the workers too.
#[test]
fn a_steady_gnmf_run_installs_nothing() {
    let cfg = Gnmf {
        rows: 48,
        cols: 36,
        sparsity: 0.4,
        rank: 4,
        iterations: 2,
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, BLOCK, 5);
    let mut sim = builder().workers(4).build();
    let mut sock = builder()
        .workers(4)
        .socket_transport(SocketOptions::default())
        .try_build()
        .expect("4 worker processes must launch");
    for run in 1..=2 {
        let before = sock.transport_stats();
        let (_, hs) = cfg.run(&mut sim, v.clone()).unwrap();
        let (_, hk) = cfg.run(&mut sock, v.clone()).unwrap();
        let installed = sock.transport_stats().install_bytes - before.install_bytes;
        assert_eq!(installed == 0, run == 2, "run {run} installed {installed}");
        for (a, b) in [(hs.w, hk.w), (hs.h, hk.h)] {
            let oracle = bits(&sim.value(a).unwrap());
            assert_eq!(bits(&sock.value(b).unwrap()), oracle, "run {run}");
            let physical = sock.value_physical(b).unwrap().expect("socket");
            assert_eq!(bits(&physical), oracle, "run {run}: worker-held factor");
        }
    }
    sock.shutdown_transport()
        .expect("workers must exit cleanly");
}

/// The same promise when it is the *store* that lets a value go. Six
/// GNMF steps over a store capped at 1.25 × |V|: `V` spends the run as a
/// stub (read, handed out, never kept), so every step installs a fresh
/// materialisation of it that no session-side bookkeeping ever saw
/// displaced — the parent stranded one copy per step (`resident_values`
/// growing by one with every step; 3 throughout on an uncapped store).
/// What the workers hold after a run is what a live handle names: `W`
/// and `H`. (At 1.5 × |V| one step of six finds `V` still resident, 4
/// reloads: a tile-wise step consumes its dying inputs, which lowers the
/// run's pressure on the store. At 1.25 × every step reloads it.)
#[test]
fn a_capped_store_strands_nothing_on_the_workers() {
    let cfg = Gnmf {
        rows: 48,
        cols: 36,
        sparsity: 0.4,
        rank: 4,
        iterations: 6,
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, BLOCK, 5);
    let v_bytes = DistMatrix::from_blocked(&v, PartitionScheme::Hash, WORKERS).logical_bytes();
    let dir = std::env::temp_dir().join(format!("dmac-conformance-capped-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let capped = SharedStore::with_capacity_and_disk(v_bytes * 5 / 4, &dir).unwrap();
    let mut sim = sim_session();
    let mut sock = builder()
        .store(capped.clone())
        .socket_transport(SocketOptions::default())
        .try_build()
        .expect("worker processes must launch");

    let (mut init, mut step) = (Program::new(), Program::new());
    cfg.build_init(&mut init).unwrap();
    cfg.build_step(&mut step).unwrap();
    let stored = |name: &str| {
        let out = step
            .outputs()
            .iter()
            .find(|(_, n)| n.as_deref() == Some(name));
        Expr::new(out.expect("the step stores it").0.id)
    };
    for s in [&mut sim, &mut sock] {
        s.bind("V", v.clone()).unwrap();
        s.run(&init).unwrap();
    }
    let mut resident = Vec::new();
    for i in 1..=cfg.iterations {
        sim.run(&step).unwrap();
        sock.run(&step).unwrap();
        for e in [stored("W"), stored("H")] {
            let oracle = bits(&sim.value(e).unwrap());
            assert_eq!(bits(&sock.value(e).unwrap()), oracle, "step {i}");
            let physical = sock.value_physical(e).unwrap().expect("socket");
            assert_eq!(bits(&physical), oracle, "step {i}: worker-held factor");
        }
        resident.push(sock.transport_stats().resident_values);
    }
    assert!(capped.is_spilled("V") && capped.stats().loads >= 5);
    assert_eq!(capped.stats().load_failures, 0);
    // The first step still finds the bound `V` resident and leaves it a
    // stub; from then on a step ends with `W` and `H`, nothing of any `V`.
    assert!(resident[0] <= 3, "{resident:?}");
    assert_eq!(resident[1..], [2; 5], "{resident:?}");
    sock.shutdown_transport()
        .expect("workers must exit cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// ... and when a run fails. A worker is SIGKILLed in the middle of the
/// second run's plan with no recovery budget: the run is a typed error,
/// `absorb_outputs` never happens, and everything the failed run had
/// installed so far is named by no handle. The sweep at the end of the
/// run — the same one a successful run ends with — takes the survivors
/// back to what they held before it started.
#[test]
fn a_failed_run_leaves_the_workers_where_it_found_them() {
    let cfg = Gnmf {
        rows: 24,
        cols: 18,
        sparsity: 0.4,
        rank: 4,
        iterations: 1,
    };
    let v = dmac::data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, BLOCK, 5);
    let session = |kill| {
        builder()
            .recovery_attempts(0)
            .socket_transport(SocketOptions { kill })
            .try_build()
            .expect("worker processes must launch")
    };
    // A healthy session counts the mirrored primitives of each run.
    let mut healthy = session(None);
    cfg.run(&mut healthy, v.clone()).unwrap();
    let first = healthy.transport_stats();
    cfg.run(&mut healthy, v.clone()).unwrap();
    let second = healthy.transport_stats();
    assert_eq!(second.resident_values, first.resident_values);
    healthy.shutdown_transport().unwrap();

    let mid_second_run = (first.ops + second.ops) / 2;
    let mut s = session(Some((1, KillAt::AfterOps(mid_second_run))));
    cfg.run(&mut s, v.clone()).unwrap();
    let before = s.transport_stats();
    assert_eq!(
        (before.ops, before.resident_values),
        (first.ops, first.resident_values)
    );
    let err = cfg.run(&mut s, v).unwrap_err();
    assert!(
        matches!(err, CoreError::RecoveryExhausted { worker: 1, .. }),
        "{err}"
    );
    let after = s.transport_stats();
    assert!(after.ops > before.ops + 1, "the run was under way");
    assert_eq!(
        after.resident_values, before.resident_values,
        "what the failed run installed is still on the survivors"
    );
}
