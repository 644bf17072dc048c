//! `serve_mix` — the front-end-bound workload.
//!
//! An in-process `dmac-serve` server (executor pool 2, 1 local thread,
//! block 16, simulator backend) and 2 closed-loop clients sending a
//! seeded request mix: 60 % `submit` of one of 6 pool scripts (GNMF- and
//! PageRank-shaped, 96–224 rows; plan-cache hits after warm-up), 20 %
//! `submit` of a never-seen shape (miss: plan + insert), 10 % `fetch` of
//! a stored result, 10 % `lint`. Engine wall is 1–3 ms per request, so
//! `lang` parse/fingerprint, `analyze` lint, `core.planner` and `serve`
//! cache/queue/protocol/socket dominate and the kernels do almost
//! nothing. Hits sit beside misses and reads beside writes in one mix, so
//! a gain for one path that costs the other shows.
//!
//! One *run* is one request, timed at the client from first send to the
//! final answer (`busy` retries included).

use std::time::{Duration, Instant};

use dmac_core::{Session, SharedStore};
use dmac_lang::parse_script;
use dmac_matrix::SplitMix64;
use dmac_serve::protocol::code;
use dmac_serve::{Client, ClientError, Json, PlanCache, Request, Response, Server, ServerConfig};

use crate::flops;
use crate::harness::{overhead_share, peak_rss_mb, probe, Ctx, Outcome, Slices};
use crate::span::Recorder;
use crate::stats::median;

const CLIENTS: usize = 2;
const POOL: usize = 6;
const WORKERS: usize = 4;
const BLOCK: usize = 16;

/// A script's shape; the text and the useful flops follow from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// GNMF-shaped: `V rows×cols`, rank, 2 iterations.
    Gnmf {
        rows: usize,
        cols: usize,
        rank: usize,
    },
    /// PageRank-shaped: `n` nodes, dense link matrix, damping in
    /// thousandths.
    PageRank {
        nodes: usize,
        iterations: usize,
        damping: usize,
    },
}

/// The pool: fixed shapes, so that bytes and residency per script repeat
/// across seeds (the seed drives the data, the order of the mix and the
/// never-seen shapes).
const POOL_SHAPES: [Shape; POOL] = [
    Shape::Gnmf {
        rows: 96,
        cols: 72,
        rank: 8,
    },
    Shape::PageRank {
        nodes: 128,
        iterations: 4,
        damping: 850,
    },
    Shape::Gnmf {
        rows: 160,
        cols: 96,
        rank: 8,
    },
    Shape::PageRank {
        nodes: 176,
        iterations: 4,
        damping: 850,
    },
    Shape::Gnmf {
        rows: 224,
        cols: 128,
        rank: 16,
    },
    Shape::PageRank {
        nodes: 224,
        iterations: 4,
        damping: 850,
    },
];

impl Shape {
    /// The script, storing under names tagged `tag` (clients never share
    /// a store name, so they never conflict).
    fn script(&self, tag: &str) -> String {
        match *self {
            Shape::Gnmf { rows, cols, rank } => format!(
                "V{tag} = random(V{tag}, {rows}, {cols})\n\
                 W{tag} = random(W{tag}, {rows}, {rank})\n\
                 H{tag} = random(H{tag}, {rank}, {cols})\n\
                 for (i in 0:1) {{\n\
                     H{tag} = H{tag} * (W{tag}.t %*% V{tag}) / (W{tag}.t %*% W{tag} %*% H{tag})\n\
                     W{tag} = W{tag} * (V{tag} %*% H{tag}.t) / (W{tag} %*% H{tag} %*% H{tag}.t)\n\
                 }}\n\
                 store(W{tag})\n\
                 store(H{tag})\n"
            ),
            Shape::PageRank {
                nodes,
                iterations,
                damping,
            } => format!(
                "link{tag} = random(link{tag}, {nodes}, {nodes})\n\
                 rank{tag} = random(rank{tag}, 1, {nodes})\n\
                 for (i in 0:{}) {{\n\
                     rank{tag} = (rank{tag} %*% link{tag}) * 0.{damping:03} + rank{tag} * 0.{:03}\n\
                 }}\n\
                 store(rank{tag})\n",
                iterations - 1,
                1000 - damping
            ),
        }
    }

    /// The store name `fetch` reads back.
    fn stored(&self, tag: &str) -> String {
        match self {
            Shape::Gnmf { .. } => format!("W{tag}"),
            Shape::PageRank { .. } => format!("rank{tag}"),
        }
    }

    fn flops(&self) -> u64 {
        match *self {
            Shape::Gnmf { rows, cols, rank } => {
                let (d, w, k) = (rows as u64, cols as u64, rank as u64);
                2 * flops::gnmf_iteration(d, w, k, d * w)
            }
            Shape::PageRank {
                nodes, iterations, ..
            } => {
                let n = nodes as u64;
                // (rank·link)·0.85 + rank·0.15: the walk, two scalings, one add.
                iterations as u64 * flops::pagerank_iteration(n, n * n)
            }
        }
    }

    /// The `k`-th never-seen shape of a client: a walk over a 127×63 grid
    /// with a stride coprime to its size, so no shape repeats within 8000
    /// misses, and every dimension stays inside the pool's range (so a
    /// miss never sets the peak residency).
    fn never_seen(start: u64, k: u64) -> Shape {
        let idx = (start + k * 1237) % (127 * 63);
        let (r, c) = (idx / 63, idx % 63);
        if k.is_multiple_of(2) {
            Shape::Gnmf {
                rows: 97 + r as usize,
                cols: 65 + c as usize,
                rank: 8,
            }
        } else {
            Shape::PageRank {
                nodes: 97 + r as usize,
                iterations: 2 + (c % 4) as usize,
                damping: 500 + 5 * c as usize,
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Fetch,
    Lint,
}

/// Ten requests in the mix's proportions; each client reshuffles it with
/// its own seeded generator every ten requests, so the proportions are
/// exact and only the order is random.
const DECK: [Kind; 10] = [
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Miss,
    Kind::Miss,
    Kind::Fetch,
    Kind::Lint,
];

fn shuffle<T>(xs: &mut [T], rng: &mut SplitMix64) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}

/// One completed request, as the client saw it.
#[derive(Debug, Clone)]
struct Sample {
    kind: Kind,
    start: Instant,
    end: Instant,
    /// Which pool script a hit submitted.
    pool: Option<usize>,
    /// The [`REPORT_PATHS`] numbers of a submit's `ExecReport` document,
    /// as the result carried it (empty for the other request kinds). Only
    /// the numbers are kept: a thousand whole documents would show up in
    /// this process's own `peak_rss_mb`.
    report: Vec<f64>,
    flops: u64,
    busy_retries: u64,
    /// What was wrong with the answer, if anything.
    failure: Option<String>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }

    /// A number from the submit's report (0 for other request kinds).
    fn reported(&self, path: &[&str]) -> f64 {
        let i = REPORT_PATHS
            .iter()
            .position(|p| *p == path)
            .expect("path is one of REPORT_PATHS");
        self.report.get(i).copied().unwrap_or(0.0)
    }
}

struct ClientState {
    id: usize,
    conn: Client,
    session: String,
    rng: SplitMix64,
    deck: Vec<Kind>,
    pool_order: Vec<usize>,
    miss_start: u64,
    misses: u64,
    /// `golden_fnv` of each pool script's warm-up submit.
    golden: [u64; POOL],
}

/// What the benchmark reads from a submit's report.
const REPORT_PATHS: [&[&str]; 13] = [
    &["wall_sec"],
    &["stage_count"],
    &["shuffle_bytes"],
    &["broadcast_bytes"],
    &["trace", "steps"],
    &["trace", "wire_bytes"],
    &["trace", "peak_resident_bytes"],
    &["trace", "predicted_bytes"],
    &["trace", "actual_bytes"],
    &["trace", "predicted_nnz"],
    &["trace", "observed_nnz"],
    &["pool", "reused"],
    &["pool", "allocated"],
];

fn report_f64(report: &Json, path: &[&str]) -> f64 {
    let mut cur = report;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

impl ClientState {
    fn tag(&self, slot: &str) -> String {
        format!("c{}{slot}", self.id)
    }

    fn next_kind(&mut self) -> Kind {
        if self.deck.is_empty() {
            self.deck = DECK.to_vec();
            shuffle(&mut self.deck, &mut self.rng);
        }
        self.deck.pop().expect("deck refilled")
    }

    /// The pool script of the next hit: each of the six once per six hits,
    /// in seeded order, so every script gets the same share of the submits
    /// (they differ eightfold in work).
    fn next_pool(&mut self) -> usize {
        if self.pool_order.is_empty() {
            self.pool_order = (0..POOL).collect();
            shuffle(&mut self.pool_order, &mut self.rng);
        }
        self.pool_order.pop().expect("order refilled")
    }

    /// Submit with retries on `busy`; every refusal is an attempt.
    fn submit(&mut self, script: &str) -> (Result<dmac_serve::ProgramResult, ClientError>, u64) {
        let mut busy = 0;
        loop {
            match self.conn.submit(&self.session, script, None) {
                Err(ClientError::Server { code: c, .. }) if c == code::BUSY && busy < 200 => {
                    busy += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                other => return (other, busy),
            }
        }
    }

    fn request(&mut self, reference: &[Vec<u64>]) -> Sample {
        let kind = self.next_kind();
        let mut s = Sample {
            kind,
            start: Instant::now(),
            end: Instant::now(),
            pool: None,
            report: Vec::new(),
            flops: 0,
            busy_retries: 0,
            failure: None,
        };
        match kind {
            Kind::Hit | Kind::Miss => {
                let (shape, pool_idx) = if kind == Kind::Hit {
                    let i = self.next_pool();
                    (POOL_SHAPES[i], Some(i))
                } else {
                    self.misses += 1;
                    (Shape::never_seen(self.miss_start, self.misses), None)
                };
                let tag = match pool_idx {
                    Some(i) => self.tag(&format!("p{i}")),
                    None => self.tag("m"),
                };
                let script = shape.script(&tag);
                s.pool = pool_idx;
                s.start = Instant::now();
                let (res, busy) = self.submit(&script);
                s.end = Instant::now();
                s.busy_retries = busy;
                match res {
                    Ok(r) => {
                        s.flops = shape.flops();
                        if let Some(i) = pool_idx {
                            if r.golden_fnv != self.golden[i] {
                                s.failure = Some(format!(
                                    "pool script {i}: trace digest moved since warm-up"
                                ));
                            } else if !r.plan_cached {
                                s.failure =
                                    Some(format!("pool script {i}: expected a plan-cache hit"));
                            }
                        } else if r.plan_cached {
                            s.failure =
                                Some("never-seen shape was served from the plan cache".into());
                        }
                        s.report = REPORT_PATHS
                            .iter()
                            .map(|p| report_f64(&r.report, p))
                            .collect();
                    }
                    Err(e) => s.failure = Some(format!("submit: {e}")),
                }
            }
            Kind::Fetch => {
                let i = self.rng.below(POOL);
                let name = POOL_SHAPES[i].stored(&self.tag(&format!("p{i}")));
                s.start = Instant::now();
                let res = self.conn.fetch(&name);
                s.end = Instant::now();
                match res {
                    Ok((_, _, bits)) if bits == reference[i] => {}
                    Ok(_) => {
                        s.failure =
                            Some(format!("fetch {name}: bits differ from the serial replay"))
                    }
                    Err(e) => s.failure = Some(format!("fetch {name}: {e}")),
                }
            }
            Kind::Lint => {
                let i = self.rng.below(POOL);
                let script = POOL_SHAPES[i].script(&self.tag(&format!("p{i}")));
                s.start = Instant::now();
                let res = self.conn.lint(&script);
                s.end = Instant::now();
                match res {
                    Ok((true, _)) => {}
                    Ok((false, d)) => {
                        s.failure = Some(format!("lint rejected a pool script: {d:?}"))
                    }
                    Err(e) => s.failure = Some(format!("lint: {e}")),
                }
            }
        }
        s
    }
}

struct ServeMix {
    server: Server,
    clients: Vec<ClientState>,
    engine_seed: u64,
}

fn server_config(engine_seed: u64) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        local_threads: 1,
        block_size: BLOCK,
        seed: engine_seed,
        pool: 2,
        ..ServerConfig::default()
    }
}

impl ServeMix {
    fn setup(ctx: &Ctx, rec: &mut Recorder) -> Result<ServeMix, String> {
        let engine_seed = ctx.seed_for(2);
        let server = rec
            .span("serve.start", |_| Server::start(server_config(engine_seed)))
            .map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr();
        let mut clients = Vec::new();
        for id in 0..CLIENTS {
            let conn = rec
                .span("serve.connect", |_| Client::connect(addr))
                .map_err(|e| format!("client {id} connect: {e}"))?;
            let mut rng = SplitMix64::new(ctx.seed_for(10 + id as u64));
            let miss_start = rng.next_u64() % (127 * 63);
            let mut c = ClientState {
                id,
                conn,
                session: format!("perf-{id}"),
                rng,
                deck: Vec::new(),
                pool_order: Vec::new(),
                miss_start,
                misses: 0,
                golden: [0; POOL],
            };
            // Cache fill: one submit of each pool script per client.
            for (i, shape) in POOL_SHAPES.iter().enumerate() {
                let script = shape.script(&c.tag(&format!("p{i}")));
                let (res, _) = c.submit(&script);
                c.golden[i] = res
                    .map_err(|e| format!("warm-up submit {i}: {e}"))?
                    .golden_fnv;
            }
            clients.push(c);
        }
        Ok(ServeMix {
            server,
            clients,
            engine_seed,
        })
    }

    /// Serial replay: each pool script run alone in a fresh local session
    /// with the server's settings; `random` data keys on matrix ids, not
    /// names, so one replay stands for every client's copy.
    fn reference(&self) -> Result<Vec<Vec<u64>>, String> {
        POOL_SHAPES
            .iter()
            .map(|shape| {
                let mut sess = Session::builder()
                    .workers(WORKERS)
                    .local_threads(1)
                    .block_size(BLOCK)
                    .seed(self.engine_seed)
                    .store(SharedStore::new())
                    .build();
                let parsed = parse_script(&shape.script("ref")).map_err(|e| e.to_string())?;
                sess.run(&parsed.program).map_err(|e| e.to_string())?;
                let m = sess
                    .env_value(&shape.stored("ref"))
                    .map_err(|e| e.to_string())?;
                Ok(crate::harness::bits(&m))
            })
            .collect()
    }

    /// Both clients, closed loop, until `deadline`.
    fn slice(&mut self, deadline: Instant, reference: &[Vec<u64>]) -> Vec<Sample> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        while Instant::now() < deadline {
                            out.push(c.request(reference));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }

    fn stats(&mut self) -> Result<Json, String> {
        self.clients[0]
            .conn
            .stats()
            .map_err(|e| format!("stats: {e}"))
    }

    fn teardown(self) {
        let ServeMix {
            server, clients, ..
        } = self;
        drop(clients);
        server.shutdown_now();
        server.wait();
    }
}

pub fn drive(ctx: &Ctx, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut slices = Slices::new(ctx);
    let mut setup_s = Vec::new();
    let mut reference = None;
    let mut samples: Vec<Sample> = Vec::new();
    let mut traced_ms = Vec::new();
    let mut plain_ms = Vec::new();
    let mut rates = Vec::new();
    let mut last = None;

    // Every slice starts a fresh server and clients (see `drive_batch`).
    // The clients keep their samples either way; a traced slice also
    // turns them into spans, so its cost shows as the difference between
    // traced and plain slices.
    for i in 0..ctx.slices() {
        slices.gauge();
        let t0 = Instant::now();
        let mut mix = rec.span("setup", |rec| ServeMix::setup(ctx, rec))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if reference.is_none() {
            reference = Some(mix.reference()?);
        }
        let reference = reference.as_ref().expect("computed in the first slice");

        let deadline = slices.deadline();
        let t0 = Instant::now();
        let traced = ctx.trace && i % 2 == 1;
        rec.next_run();
        let got = mix.slice(deadline, reference);
        let (start, end) = (t0, Instant::now());
        let busy_s = end.duration_since(start).as_secs_f64();
        let gflop = got
            .iter()
            .filter(|s| s.failure.is_none())
            .map(|s| s.flops)
            .sum::<u64>() as f64
            / 1e9;
        rates.push((got.len() as f64 / busy_s, gflop / busy_s));
        let lat = got.iter().map(Sample::latency_ms);
        if traced {
            traced_ms.extend(lat);
            rec.span("slice", |rec| {
                for s in &got {
                    let name = match s.kind {
                        Kind::Hit => "serve.submit_hit",
                        Kind::Miss => "serve.submit_miss",
                        Kind::Fetch => "serve.fetch",
                        Kind::Lint => "serve.lint",
                    };
                    rec.closed(name, s.start.max(start), s.end.min(end));
                }
            });
        } else {
            plain_ms.extend(lat);
        }
        samples.extend(got);
        if i + 1 < ctx.slices() {
            mix.teardown();
        } else {
            last = Some(mix);
        }
    }
    let mut mix = last.expect("the last slice's server is kept");
    out.set_host(&slices);
    if samples.is_empty() {
        return Err("no request completed in the timed phase".into());
    }

    for s in &samples {
        out.attempted += 1 + s.busy_retries;
        out.failed += s.busy_retries;
        if let Some(f) = &s.failure {
            out.fail(f.clone());
        }
    }
    out.set_run_metrics(samples.iter().map(Sample::latency_ms).collect(), &rates);
    out.set("setup_s", median(&setup_s));
    out.samples.insert("setup_s", setup_s);
    let submits: Vec<&Sample> = samples
        .iter()
        .filter(|s| !s.report.is_empty() && s.failure.is_none())
        .collect();
    let over_submits = |path: &[&str]| submits.iter().map(|s| s.reported(path)).collect::<Vec<_>>();
    // Bytes and residency of the pool's programs, as the results' own
    // reports state them: wire bytes of a submit averaged over the six
    // scripts (each by its median), the largest script's peak. Never-seen
    // shapes are left out: they differ from seed to seed.
    let of_script = |i: usize, path: &[&str]| {
        let xs: Vec<f64> = submits
            .iter()
            .filter(|s| s.pool == Some(i))
            .map(|s| s.reported(path))
            .collect();
        median(&xs)
    };
    let wire: f64 = (0..POOL)
        .map(|i| of_script(i, &["trace", "wire_bytes"]))
        .sum();
    out.set("wire_bytes", wire / POOL as f64);
    out.set(
        "peak_resident_bytes",
        (0..POOL)
            .map(|i| of_script(i, &["trace", "peak_resident_bytes"]))
            .fold(0.0, f64::max),
    );

    if ctx.trace {
        let by_kind = |k: Kind| {
            median(
                &samples
                    .iter()
                    .filter(|s| s.kind == k)
                    .map(Sample::latency_ms)
                    .collect::<Vec<_>>(),
            )
        };
        out.set("serve.submit_hit_p50_ms", by_kind(Kind::Hit));
        out.set("serve.submit_miss_p50_ms", by_kind(Kind::Miss));
        out.set("serve.fetch_p50_ms", by_kind(Kind::Fetch));
        out.set("serve.lint_p50_ms", by_kind(Kind::Lint));
        let exec: f64 = over_submits(&["wall_sec"]).iter().sum();
        let lat: f64 = submits.iter().map(|s| s.latency_ms() / 1e3).sum();
        out.set("serve.exec_share", if lat > 0.0 { exec / lat } else { 0.0 });
        // [report] figures of the engine inside the requests: the median
        // submit's, from the report each result carries.
        for (metric, path) in [
            ("core.engine.exec_s", &["wall_sec"][..]),
            ("core.planner.stages", &["stage_count"]),
            ("core.planner.steps", &["trace", "steps"]),
            (
                "core.planner.predicted_bytes",
                &["trace", "predicted_bytes"],
            ),
            ("cluster.shuffle_bytes", &["shuffle_bytes"]),
            ("cluster.broadcast_bytes", &["broadcast_bytes"]),
            ("matrix.pool_reused", &["pool", "reused"]),
            ("matrix.pool_allocated", &["pool", "allocated"]),
        ] {
            out.set(metric, median(&over_submits(path)));
        }
        let ratio = |num: &[&str], den: &[&str]| {
            let (n, d): (f64, f64) = (
                over_submits(num).iter().sum(),
                over_submits(den).iter().sum(),
            );
            if d > 0.0 {
                n / d
            } else {
                0.0
            }
        };
        out.set(
            "core.planner.cost_ratio",
            ratio(&["trace", "actual_bytes"], &["trace", "predicted_bytes"]),
        );
        out.set(
            "stats.nnz_ratio",
            ratio(&["trace", "observed_nnz"], &["trace", "predicted_nnz"]),
        );
        out.set(
            "trace_overhead_share",
            overhead_share(&traced_ms, &plain_ms),
        );

        let stats = mix.stats()?;
        out.set(
            "serve.cache.hit_rate",
            report_f64(&stats, &["plan_cache", "hit_rate"]),
        );
        out.set(
            "serve.cache.evictions",
            report_f64(&stats, &["plan_cache", "evictions"]),
        );
        out.set(
            "serve.rejected_busy",
            report_f64(&stats, &["counters", "rejected_busy"]),
        );
        for (metric, path) in [
            ("core.store.spills", "spills"),
            ("core.store.spill_bytes", "spill_bytes"),
            ("core.store.loads", "loads"),
            ("core.store.load_bytes", "load_bytes"),
        ] {
            out.set(metric, report_f64(&stats, &["store", path]));
        }
        out.set(
            "serve.start_ms",
            median(&rec.durations("serve.start")) * 1e3,
        );
        out.set(
            "serve.connect_ms",
            median(&rec.durations("serve.connect")) * 1e3,
        );
        probes(&mix, &mut out)?;
    }
    out.set("peak_rss_mb", peak_rss_mb());
    mix.teardown();
    out.set(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}

/// Direct timed calls of the front-end layers' public functions on the
/// pool scripts (medians over the six).
fn probes(mix: &ServeMix, out: &mut Outcome) -> Result<(), String> {
    let budget = Duration::from_millis(40);
    let scripts: Vec<String> = POOL_SHAPES.iter().map(|s| s.script("probe")).collect();
    let over =
        |f: &mut dyn FnMut(&str) -> f64| median(&scripts.iter().map(|s| f(s)).collect::<Vec<_>>());

    out.set(
        "lang.parse_us",
        over(&mut |s| probe(budget, 5, || drop(std::hint::black_box(parse_script(s))))) * 1e6,
    );
    let programs: Vec<_> = scripts
        .iter()
        .map(|s| {
            parse_script(s)
                .map(|p| p.program)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let over_programs = |f: &mut dyn FnMut(&dmac_lang::Program) -> f64| {
        median(&programs.iter().map(f).collect::<Vec<_>>())
    };
    out.set(
        "lang.fingerprint_us",
        over_programs(&mut |p| {
            probe(budget, 5, || {
                std::hint::black_box(p.fingerprint());
            })
        }) * 1e6,
    );
    out.set(
        "analyze.lint_us",
        over(&mut |s| {
            probe(budget, 5, || {
                drop(std::hint::black_box(dmac_analyze::lint_script(s)))
            })
        }) * 1e6,
    );

    // Planning as the server's miss path does it: `Session::prepare` on a
    // session with the server's settings.
    let store = SharedStore::new();
    let sess = Session::builder()
        .workers(WORKERS)
        .local_threads(1)
        .block_size(BLOCK)
        .seed(mix.engine_seed)
        .store(store.clone())
        .build();
    out.set(
        "core.planner.plan_ms",
        over_programs(&mut |p| probe(budget, 3, || drop(std::hint::black_box(sess.prepare(p)))))
            * 1e3,
    );
    let largest = &programs[POOL - 2];
    let prep = sess.prepare(largest).map_err(|e| e.to_string())?;
    out.set(
        "core.planner.certified_peak_bytes",
        prep.certificate().peak as f64,
    );

    out.set(
        "serve.cache.key_us",
        over_programs(&mut |p| {
            probe(budget, 5, || {
                drop(std::hint::black_box(dmac_serve::cache::cache_key(
                    p, &store,
                )))
            })
        }) * 1e6,
    );
    let cache = PlanCache::new(128);
    let keys: Vec<String> = programs
        .iter()
        .map(|p| dmac_serve::cache::cache_key(p, &store))
        .collect();
    for (k, p) in keys.iter().zip(&programs) {
        cache.insert(
            k.clone(),
            std::sync::Arc::new(sess.prepare(p).map_err(|e| e.to_string())?),
        );
    }
    let mut i = 0;
    out.set(
        "serve.cache.lookup_us",
        probe(budget, 5, || {
            i += 1;
            std::hint::black_box(cache.lookup(&keys[i % keys.len()]));
        }) * 1e6,
    );

    // Protocol: a submit request as the client frames it, and a real
    // result frame (a local run's report in the server's encoding).
    let req = Request::Submit {
        session: "perf-0".into(),
        script: scripts[POOL - 2].clone(),
        deadline_ms: None,
    };
    out.set(
        "serve.protocol.encode_us",
        probe(budget, 5, || drop(std::hint::black_box(req.to_json()))) * 1e6,
    );
    let mut local = Session::builder()
        .workers(WORKERS)
        .local_threads(1)
        .block_size(BLOCK)
        .seed(mix.engine_seed)
        .build();
    let report = local.run(largest).map_err(|e| e.to_string())?;
    let frame = dmac_serve::protocol::encode_result(
        1,
        true,
        &["Wprobe".into(), "Hprobe".into()],
        0xD11AC,
        report.sim_time_sec(),
        prep.certificate().peak,
        &report.to_json(),
    );
    let req_frame = req.to_json();
    out.set(
        "serve.protocol.decode_us",
        probe(budget, 5, || {
            std::hint::black_box(Request::from_json(&req_frame).is_ok());
            std::hint::black_box(Response::from_json(&frame).is_ok());
        }) * 1e6,
    );
    Ok(())
}
