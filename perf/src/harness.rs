//! What the four workloads share: the run context, the timed phase cut
//! into slices with a host-noise gauge at the start of each, the sample
//! buffers the end-to-end metrics are computed from, and the host probes
//! (`VmHWM`, child processes).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dmac_core::engine::ExecReport;
use dmac_matrix::BlockedMatrix;

use crate::span::Recorder;
use crate::stats::{median, tail};

/// The timed phase is cut into this many slices. Each starts with the
/// calibration loop, so a noisy spell on the shared host is seen by the
/// gauge as well as by the runs around it, and then sets the workload up
/// afresh (`setup_s` is the median of the set-ups).
pub const SLICES: usize = 5;

/// The 1/16-scale smoke makes do with two.
pub const QUICK_SLICES: usize = 2;

/// A set whose calibration times spread by more than this is marked
/// noisy, so two sets that disagree can be told from a regression.
pub const NOISY_SPREAD: f64 = 0.10;

/// `peak_rss_mb` of a batch workload is read after this many runs of the
/// first slice (or at the end, if it has fewer), not at the end of the
/// phase: memory that grows with every run would otherwise read higher
/// on a faster build, which completes more runs in the same time.
pub const RSS_RUNS: usize = 3;

/// Parameters of one benchmark invocation.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// `--trace 1`: staged runs under the span recorder, twins, probes.
    pub trace: bool,
    /// Workloads at 1/16 of their size (the unit-test smoke).
    pub quick: bool,
    /// A directory inside the build's target directory for spill files.
    pub scratch: PathBuf,
}

impl Ctx {
    /// Pick the full-size or the 1/16-scale value of a dimension.
    pub fn size(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    pub fn slices(&self) -> usize {
        if self.quick {
            QUICK_SLICES
        } else {
            SLICES
        }
    }

    /// The traced pass gives a fifth of `--seconds` to the twins (see
    /// [`Ctx::twin_seconds`]), so traced and untraced invocations take
    /// about as long.
    pub fn timed_seconds(&self) -> f64 {
        if self.trace {
            self.seconds * 0.8
        } else {
            self.seconds
        }
    }

    pub fn twin_seconds(&self) -> f64 {
        self.seconds * 0.2
    }

    /// A seed for one of the workload's generators, derived from `--seed`
    /// so that no two generators share a stream.
    pub fn seed_for(&self, stream: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The host-noise gauge: fixed pure-Rust work, the same on every call, on
/// every core at once — a dependent multiply-add chain the optimiser
/// cannot shorten, then read-modify-write passes over a buffer larger
/// than a core's private cache. Its wall time moves only with the host
/// (frequency, neighbours on the cores or the memory bus), never with the
/// repo. About 30 ms on the sizing host (`quick`: a sixteenth of it, like
/// the workloads). The buffers live as long as the gauge, so that they
/// are a constant part of `peak_rss_mb` and not a matter of which thread
/// allocated first.
pub struct Gauge {
    chain: u64,
    buffers: Vec<Vec<f64>>,
}

impl Gauge {
    pub fn new(quick: bool) -> Gauge {
        let scale = if quick { 16 } else { 1 };
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Gauge {
            chain: 16_000_000 / scale,
            buffers: vec![vec![1.0; (1 << 20) / scale as usize]; threads],
        }
    }

    /// One call; returns its wall time in milliseconds.
    pub fn call(&mut self) -> f64 {
        let chain = self.chain;
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for buf in &mut self.buffers {
                scope.spawn(move || {
                    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
                    for i in 0..chain {
                        // `black_box` keeps the chain a chain: without it
                        // the compiler shortens the recurrence.
                        x = std::hint::black_box(
                            x.wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(i | 1),
                        );
                    }
                    for pass in 0..12 {
                        for v in buf.iter_mut() {
                            *v = *v * 0.5 + pass as f64;
                        }
                    }
                    std::hint::black_box(buf);
                });
            }
        });
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// The slices of the timed phase: their length and the gauge's readings.
pub struct Slices {
    slice: Duration,
    gauge: Gauge,
    pub calib_ms: Vec<f64>,
}

impl Slices {
    pub fn new(ctx: &Ctx) -> Slices {
        let mut gauge = Gauge::new(ctx.quick);
        // One untimed call: the first pays for thread start-up and cold
        // caches, which is not the host's noise.
        gauge.call();
        Slices {
            slice: Duration::from_secs_f64(ctx.timed_seconds() / ctx.slices() as f64),
            gauge,
            calib_ms: Vec::new(),
        }
    }

    /// Take the gauge's reading for the slice about to start. Call it
    /// before the slice's set-up, while nothing of the workload runs (an
    /// idle server's or worker's threads would count as host noise). The
    /// reading is the median of three calls: a scheduler blip hits one of
    /// them, a slow spell of the host all three.
    pub fn gauge(&mut self) {
        let calls: Vec<f64> = (0..3).map(|_| self.gauge.call()).collect();
        self.calib_ms.push(median(&calls));
    }

    /// The deadline of the slice that starts now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + self.slice
    }

    /// `(max − min) ÷ median` of the readings.
    pub fn calib_spread(&self) -> f64 {
        let m = median(&self.calib_ms);
        if m == 0.0 {
            return 0.0;
        }
        let max = self.calib_ms.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.calib_ms.iter().cloned().fold(f64::MAX, f64::min);
        (max - min) / m
    }
}

/// What one run (one user-visible call) produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Wall seconds of the user call alone (input copies made for it and
    /// the output check afterwards are outside).
    pub wall_s: f64,
    /// Bytes that crossed worker boundaries (simulated or real).
    pub wire_bytes: u64,
    pub peak_resident: u64,
    /// Output mismatches; any entry makes the run a failed operation.
    pub failures: Vec<String>,
    /// The engine reports of the run (one per executed program).
    pub reports: Vec<ExecReport>,
    /// Counter deltas over the run, read from documents the program
    /// returns (`TransportStats`, `StoreStats`).
    pub counters: Vec<(&'static str, f64)>,
}

/// The counter called `name`, one value per run that has it.
pub fn counter_values(runs: &[RunResult], name: &str) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| r.counters.iter())
        .filter(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .collect()
}

/// Median over runs of the counter called `name` (0 when no run has it).
pub fn counter_median(runs: &[RunResult], name: &str) -> f64 {
    median(&counter_values(runs, name))
}

/// `trace_overhead_share`: how much longer the traced runs' median is
/// than the plain runs', as a share of the plain median.
pub fn overhead_share(traced: &[f64], plain: &[f64]) -> f64 {
    if traced.is_empty() || plain.is_empty() {
        return 0.0;
    }
    (median(traced) - median(plain)) / median(plain)
}

/// Everything one invocation measured, before it is turned into the
/// metric map.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons for failed operations (first few are printed).
    pub failures: Vec<String>,
    /// Samples per end-to-end metric that has any (timings); written to
    /// the results file so `perf compare` can show quartiles.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Did the gauge's readings spread by more than [`NOISY_SPREAD`]?
    pub fn noisy(&self) -> bool {
        self.values.get("host.calib_spread").copied().unwrap_or(0.0) > NOISY_SPREAD
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// The end-to-end metrics every workload derives the same way from
    /// its run latencies: median and tail over all runs; run rate and
    /// useful arithmetic rate as the median over the slices' own rates
    /// `(runs ÷ time they had, GFLOP ÷ that time)`, so that a slow spell
    /// of the host weighs on one slice's rate and not on the figure.
    pub fn set_run_metrics(&mut self, run_ms: Vec<f64>, slice_rates: &[(f64, f64)]) {
        let t = tail(&run_ms);
        self.set("run_p50_ms", median(&run_ms));
        self.set("run_tail_ms", t.value);
        self.set("run_tail_percentile", t.percentile);
        let (runs, gflops): (Vec<f64>, Vec<f64>) = slice_rates.iter().copied().unzip();
        self.set("runs_per_s", median(&runs));
        self.set("gflops", median(&gflops));
        self.samples.insert("run_p50_ms", run_ms);
        self.samples.insert("runs_per_s", runs);
        self.samples.insert("gflops", gflops);
    }

    pub fn set_host(&mut self, slices: &Slices) {
        self.set("host.calib_ms", median(&slices.calib_ms));
        self.set("host.calib_spread", slices.calib_spread());
    }
}

/// A batch workload: set up, then the same user call again and again.
/// The three batch workloads differ only in these pieces; the loop, the
/// slices and the end-to-end arithmetic are [`drive_batch`].
pub trait Batch: Sized {
    /// Reference outputs the runs are checked against.
    type Reference;
    /// Data generation, session build (worker launch), bind, one untimed
    /// warm-up run. Timed as `setup_s`.
    fn setup(ctx: &Ctx, rec: &mut Recorder) -> Result<Self, String>;
    /// Compute the reference outputs (once, from the first instance;
    /// outside `setup_s`) and check the warm-up run against them.
    fn reference(&mut self) -> Result<Self::Reference, String>;
    /// Useful flops of one run (computed from shapes and measured nnz).
    fn flops_per_run(&self) -> f64;
    /// One user call. `staged` replaces the single call by the same work
    /// cut at layer boundaries, each under a span.
    fn run(
        &mut self,
        rec: &mut Recorder,
        staged: bool,
        reference: &Self::Reference,
    ) -> Result<RunResult, String>;
    /// Twins and probes of the traced pass; writes per-layer values.
    fn layers(
        &mut self,
        ctx: &Ctx,
        rec: &mut Recorder,
        staged: &[RunResult],
        plain_median_s: f64,
        out: &mut Outcome,
    ) -> Result<(), String>;
    /// Stop whatever the set-up started (worker processes).
    fn teardown(self) -> Result<(), String>;
}

pub fn drive_batch<W: Batch>(ctx: &Ctx, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut slices = Slices::new(ctx);
    let mut setup_s = Vec::new();
    let mut reference = None;
    let mut plain: Vec<RunResult> = Vec::new();
    let mut staged: Vec<RunResult> = Vec::new();
    let mut rates = Vec::new();
    let mut off = Recorder::new(false);
    let mut last = None;

    // Every slice sets up afresh (so set-up is timed once per slice, and
    // state that builds up over runs, such as shards the workers keep,
    // never carries from one slice into the next), then runs until its
    // deadline. With tracing on, staged runs alternate with plain ones,
    // so the cost of staging and spans is measured under the same host
    // conditions.
    for slice in 0..ctx.slices() {
        slices.gauge();
        let t0 = Instant::now();
        let mut w = rec.span("setup", |rec| W::setup(ctx, rec))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if reference.is_none() {
            reference = Some(w.reference()?);
        }
        let reference = reference.as_ref().expect("computed in the first slice");

        let deadline = slices.deadline();
        let (mut runs, mut busy_s) = (0usize, 0.0);
        while Instant::now() < deadline {
            let is_staged = ctx.trace && (plain.len() + staged.len()) % 2 == 1;
            out.attempted += 1;
            rec.next_run();
            let result = if is_staged {
                w.run(rec, true, reference)
            } else {
                w.run(&mut off, false, reference)
            };
            match result {
                Ok(r) => {
                    if !r.failures.is_empty() {
                        out.fail(r.failures.join("; "));
                    }
                    if is_staged {
                        staged.push(r);
                    } else {
                        runs += 1;
                        busy_s += r.wall_s;
                        // Only staged runs' reports are read afterwards.
                        plain.push(RunResult {
                            reports: Vec::new(),
                            ..r
                        });
                    }
                }
                Err(e) => out.fail(e),
            }
            if slice == 0 && plain.len() + staged.len() == RSS_RUNS {
                out.set("peak_rss_mb", peak_rss_mb());
            }
        }
        if runs > 0 {
            let gflop = w.flops_per_run() * runs as f64 / 1e9;
            rates.push((runs as f64 / busy_s, gflop / busy_s));
        }
        if slice + 1 < ctx.slices() {
            w.teardown()?;
        } else {
            last = Some(w);
        }
    }
    let mut w = last.expect("the last slice's instance is kept");
    out.set_host(&slices);
    if plain.is_empty() {
        return Err("no run completed in the timed phase".into());
    }

    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    out.set_run_metrics(walls.iter().map(|s| s * 1e3).collect(), &rates);
    out.set("setup_s", median(&setup_s));
    out.samples.insert("setup_s", setup_s);
    let bytes: Vec<f64> = plain.iter().map(|r| r.wire_bytes as f64).collect();
    out.set("wire_bytes", median(&bytes));
    let peak = plain.iter().map(|r| r.peak_resident).max().unwrap_or(0);
    out.set("peak_resident_bytes", peak as f64);

    if ctx.trace {
        let staged_walls: Vec<f64> = staged.iter().map(|r| r.wall_s).collect();
        out.set(
            "trace_overhead_share",
            overhead_share(&staged_walls, &walls),
        );
        w.layers(ctx, rec, &staged, median(&walls), &mut out)?;
    }
    if !out.values.contains_key("peak_rss_mb") {
        out.set("peak_rss_mb", peak_rss_mb());
    }
    w.teardown()?;
    out.set(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}

/// Bit patterns of a matrix's cells, row-major: equal vectors mean
/// bit-identical matrices.
pub fn bits(m: &BlockedMatrix) -> Vec<u64> {
    m.to_dense().data().iter().map(|v| v.to_bits()).collect()
}

/// Largest relative difference between two equally shaped matrices,
/// `|a−b| ÷ max(|a|,|b|,1)`; infinite when the shapes differ.
pub fn max_rel_diff(a: &BlockedMatrix, b: &BlockedMatrix) -> f64 {
    let (a, b) = (a.to_dense(), b.to_dense());
    if a.data().len() != b.data().len() {
        return f64::INFINITY;
    }
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
        .fold(0.0, f64::max)
}

/// `VmHWM` of a process in kB.
fn vm_hwm_kb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Pids of this process's live children (the worker daemons).
pub fn child_pids() -> Vec<String> {
    let me = std::process::id().to_string();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| name.bytes().all(|b| b.is_ascii_digit()))
        .filter(|pid| {
            // Field 4 of /proc/<pid>/stat, after the parenthesised name.
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|s| {
                    let ppid = s.rsplit_once(')')?.1.split_whitespace().nth(1)?;
                    Some(ppid == me)
                })
                .unwrap_or(false)
        })
        .collect()
}

/// Peak resident set of this process plus its live children, in MB.
pub fn peak_rss_mb() -> f64 {
    let own = vm_hwm_kb("self").unwrap_or(0.0);
    let kids: f64 = child_pids().iter().filter_map(|p| vm_hwm_kb(p)).sum();
    (own + kids) / 1024.0
}

/// Sum `f` over every primitive span of a set of engine reports.
pub fn sum_spans(reports: &[&ExecReport], f: impl Fn(&dmac_cluster::OpSpan) -> f64) -> f64 {
    reports
        .iter()
        .flat_map(|r| r.trace.steps.iter())
        .flat_map(|s| s.spans.iter())
        .map(f)
        .sum()
}

/// Time `f` repeatedly for about `budget` (at least `min_reps` times)
/// and return the median seconds of one call.
pub fn probe(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed() < budget {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= 10_000 {
            break;
        }
    }
    median(&times)
}
