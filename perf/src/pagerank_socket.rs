//! `pagerank_socket` — the transport-bound workload.
//!
//! PageRank on 4 real worker processes over local TCP (default
//! `SocketOptions`: binary tiles, peer exchange, pipelined dispatch).
//! Arithmetic is ~1 MFLOP per iteration; tile encode/decode, frames,
//! peer exchange, seals and round trips are most of the wall. It uses
//! the multiply kernel the other way round from GNMF (dense 1×n row ·
//! hyper-sparse CSC, mostly empty blocks), so a kernel gain tuned for
//! `gnmf_sim` that costs the sparse path shows here.
//!
//! The worker daemon is this executable itself, started with the
//! daemon's own arguments (`--connect … --host-id …`): `locate_workerd`
//! honours `DMAC_WORKERD`, and the daemon's whole body is the library's
//! `run_worker`, so the processes run exactly the code `dmac-workerd`
//! runs while the benchmark stays one package with one build.

use std::time::Instant;

use dmac_apps::pagerank::PageRankProgram;
use dmac_apps::PageRank;
use dmac_cluster::transport::workerd::{run_worker, WorkerOptions};
use dmac_cluster::{SocketOptions, TransportStats};
use dmac_core::Session;
use dmac_lang::Program;
use dmac_matrix::BlockedMatrix;

use crate::flops;
use crate::harness::{bits, counter_median, Batch, Ctx, Outcome, RunResult};
use crate::layers;
use crate::span::Recorder;
use crate::stats::median;

pub const WORKERS: usize = 4;
pub const LOCAL_THREADS: usize = 1;

/// `perf --connect HOST:PORT --host-id N [--heartbeat-ms MS]`: serve as
/// one worker daemon until the coordinator shuts it down.
pub fn worker_main(argv: &[String]) -> Result<(), String> {
    let mut opts = WorkerOptions {
        connect: String::new(),
        host_id: usize::MAX,
        heartbeat_ms: 100,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--connect" => opts.connect = value()?.clone(),
            "--host-id" => {
                opts.host_id = value()?.parse().map_err(|e| format!("--host-id: {e}"))?
            }
            "--heartbeat-ms" => {
                opts.heartbeat_ms = value()?
                    .parse()
                    .map_err(|e| format!("--heartbeat-ms: {e}"))?
            }
            other => return Err(format!("worker mode: unknown argument {other:?}")),
        }
    }
    if opts.connect.is_empty() || opts.host_id == usize::MAX {
        return Err("worker mode needs --connect and --host-id".into());
    }
    run_worker(&opts).map_err(|e| format!("worker {}: {e}", opts.host_id))
}

/// Point the socket transport's launcher at this executable, unless the
/// caller already chose a daemon.
fn use_self_as_worker() -> Result<(), String> {
    if std::env::var_os("DMAC_WORKERD").is_none() {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        std::env::set_var("DMAC_WORKERD", exe);
    }
    Ok(())
}

pub struct PageRankSocket {
    cfg: PageRank,
    block: usize,
    engine_seed: u64,
    graph: BlockedMatrix,
    session: Session,
    handles: PageRankProgram,
}

fn session(block: usize, seed: u64, socket: bool) -> Result<Session, String> {
    let b = Session::builder()
        .workers(WORKERS)
        .local_threads(LOCAL_THREADS)
        .block_size(block)
        .seed(seed);
    if socket {
        b.socket_transport(SocketOptions::default())
            .try_build()
            .map_err(|e| format!("launching {WORKERS} worker processes: {e}"))
    } else {
        Ok(b.build())
    }
}

/// What a run added to the transport's counters, under the names of the
/// per-layer metrics they become.
fn delta(after: &TransportStats, before: &TransportStats) -> Vec<(&'static str, f64)> {
    let d = |a: u64, b: u64| (a - b) as f64;
    vec![
        (FRAMES, d(after.frames, before.frames)),
        (FRAME_BYTES, d(after.frame_bytes, before.frame_bytes)),
        (PEER_BYTES, d(after.peer_bytes, before.peer_bytes)),
        (RELAY_BYTES, d(after.relay_bytes, before.relay_bytes)),
        (INSTALL_BYTES, d(after.install_bytes, before.install_bytes)),
        (PAYLOAD_BYTES, d(after.payload_bytes, before.payload_bytes)),
        (ROUNDS, d(after.rounds, before.rounds)),
    ]
}

const FRAMES: &str = "cluster.transport.frames";
const FRAME_BYTES: &str = "cluster.transport.frame_bytes";
const PEER_BYTES: &str = "cluster.transport.peer_bytes";
const RELAY_BYTES: &str = "cluster.transport.relay_bytes";
const INSTALL_BYTES: &str = "cluster.transport.install_bytes";
const PAYLOAD_BYTES: &str = "cluster.transport.payload_bytes";
const ROUNDS: &str = "cluster.transport.rounds";

impl PageRankSocket {
    /// The staged equivalent of `PageRank::run`.
    fn run_staged(&mut self, rec: &mut Recorder) -> Result<dmac_core::engine::ExecReport, String> {
        let err = |e: dmac_core::CoreError| e.to_string();
        rec.span("run", |rec| {
            rec.span("core.engine.bind", |_| -> Result<(), String> {
                let link = dmac_data::row_normalize(&self.graph).map_err(|e| e.to_string())?;
                self.session.bind("link", link).map_err(err)?;
                let n = self.cfg.nodes;
                let d = BlockedMatrix::from_fn(1, n, self.block, |_, _| 1.0 / n as f64)
                    .map_err(|e| e.to_string())?;
                self.session.bind("D", d).map_err(err)
            })?;
            let (program, handles) = rec
                .span("apps.build", |_| {
                    let mut p = Program::new();
                    self.cfg.build(&mut p).map(|h| (p, h))
                })
                .map_err(err)?;
            self.handles = handles;
            rec.span("analyze.lint", |_| {
                std::hint::black_box(dmac_analyze::lint_program(&program));
            });
            let prep = rec
                .span("core.planner.plan", |_| self.session.prepare(&program))
                .map_err(err)?;
            rec.span("core.engine.exec", |_| self.session.run_prepared(&prep))
                .map_err(err)
        })
    }
}

impl Batch for PageRankSocket {
    /// Bits of the simulator oracle's final rank vector.
    type Reference = Vec<u64>;

    fn setup(ctx: &Ctx, rec: &mut Recorder) -> Result<Self, String> {
        use_self_as_worker()?;
        let nodes = ctx.size(16_384, 1024);
        let edges = ctx.size(262_144, 16_384);
        let block = ctx.size(128, 32);
        let cfg = PageRank {
            nodes,
            link_sparsity: edges as f64 / (nodes as f64 * nodes as f64),
            damping: 0.85,
            iterations: 10,
        };
        let graph = rec.span("data.gen", |_| {
            dmac_data::powerlaw_graph(nodes, edges, block, ctx.seed_for(1))
        });
        let engine_seed = ctx.seed_for(2);
        let mut session = rec.span("cluster.transport.launch", |_| {
            session(block, engine_seed, true)
        })?;
        let (_, handles) = cfg
            .run(&mut session, &graph)
            .map_err(|e| format!("warm-up run: {e}"))?;
        Ok(PageRankSocket {
            cfg,
            block,
            engine_seed,
            graph,
            session,
            handles,
        })
    }

    fn reference(&mut self) -> Result<Self::Reference, String> {
        let mut sim = session(self.block, self.engine_seed, false)?;
        let (_, h) = self
            .cfg
            .run(&mut sim, &self.graph)
            .map_err(|e| e.to_string())?;
        Ok(bits(&sim.value(h.rank).map_err(|e| e.to_string())?))
    }

    fn flops_per_run(&self) -> f64 {
        (self.cfg.iterations as u64
            * flops::pagerank_iteration(self.cfg.nodes as u64, self.graph.nnz() as u64))
            as f64
    }

    fn run(
        &mut self,
        rec: &mut Recorder,
        staged: bool,
        oracle: &Self::Reference,
    ) -> Result<RunResult, String> {
        let before = self.session.transport_stats();
        let t0 = Instant::now();
        let report = if staged {
            self.run_staged(rec)?
        } else {
            let (report, handles) = self
                .cfg
                .run(&mut self.session, &self.graph)
                .map_err(|e| e.to_string())?;
            self.handles = handles;
            report
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let counters = delta(&self.session.transport_stats(), &before);

        // The check reads the rank vector back from the worker processes'
        // own shards, not from the coordinator's in-process copy.
        let rank = self.handles.rank;
        let physical = rec
            .span("core.engine.fetch", |_| self.session.value_physical(rank))
            .map_err(|e| e.to_string())?
            .ok_or("socket session returned no physical value")?;
        let mut failures = Vec::new();
        if bits(&physical) != *oracle {
            failures.push(
                "pagerank_socket: workers' rank vector differs from the simulator oracle".into(),
            );
        }
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        if get(RELAY_BYTES) != 0.0 {
            failures.push(format!(
                "pagerank_socket: {} tile bytes crossed the coordinator relay",
                get(RELAY_BYTES)
            ));
        }
        Ok(RunResult {
            wall_s,
            wire_bytes: (get(FRAME_BYTES) + get(PEER_BYTES)) as u64,
            peak_resident: report.trace.peak_resident(),
            failures,
            reports: vec![report],
            counters,
        })
    }

    fn layers(
        &mut self,
        ctx: &Ctx,
        rec: &mut Recorder,
        staged: &[RunResult],
        plain_median_s: f64,
        out: &mut Outcome,
    ) -> Result<(), String> {
        layers::report_layers(staged, rec, out);
        out.set("data.gen_s", median(&rec.durations("data.gen")));
        out.set(
            "cluster.transport.launch_ms",
            median(&rec.durations("cluster.transport.launch")) * 1e3,
        );

        // The simulator twin: the same program on the in-process backend.
        // What the socket run costs beyond it is the transport's.
        let mut sim = session(self.block, self.engine_seed, false)?;
        let mut twin = Vec::new();
        let budget = Instant::now() + std::time::Duration::from_secs_f64(ctx.twin_seconds());
        while twin.len() < 3 || Instant::now() < budget {
            let t0 = Instant::now();
            rec.span("twin.sim", |_| self.cfg.run(&mut sim, &self.graph))
                .map_err(|e| e.to_string())?;
            twin.push(t0.elapsed().as_secs_f64());
        }
        let overhead = (plain_median_s - median(&twin)).max(0.0);
        out.set("cluster.transport.overhead_s", overhead);

        for name in [
            FRAMES,
            FRAME_BYTES,
            PEER_BYTES,
            RELAY_BYTES,
            INSTALL_BYTES,
            PAYLOAD_BYTES,
            ROUNDS,
        ] {
            out.set(name, counter_median(staged, name));
        }
        let rounds = counter_median(staged, ROUNDS);
        out.set(
            "cluster.transport.round_us",
            if rounds > 0.0 {
                overhead * 1e6 / rounds
            } else {
                0.0
            },
        );
        let wire = counter_median(staged, FRAME_BYTES) + counter_median(staged, PEER_BYTES);
        out.set(
            "cluster.transport.wire_mb_per_s",
            if overhead > 0.0 {
                wire / 1e6 / overhead
            } else {
                0.0
            },
        );

        let link = dmac_data::row_normalize(&self.graph).map_err(|e| e.to_string())?;
        let rank = self
            .session
            .value(self.handles.rank)
            .map_err(|e| e.to_string())?;
        layers::probe_codec(&[&link, &rank], out);
        layers::probe_dense_csc(&link, out);
        layers::probe_measure(&[&link], out);
        let mut p = Program::new();
        self.cfg.build(&mut p).map_err(|e| e.to_string())?;
        layers::probe_verify(&p, &[("link", &link)], self.block, WORKERS, out)?;
        let prep = self.session.prepare(&p).map_err(|e| e.to_string())?;
        out.set(
            "core.planner.certified_peak_bytes",
            prep.certificate().peak as f64,
        );
        Ok(())
    }

    fn teardown(mut self) -> Result<(), String> {
        self.session
            .shutdown_transport()
            .map_err(|e| format!("workers did not shut down cleanly: {e}"))
    }
}
