//! `gnmf_spill` — the store-bound workload.
//!
//! Checkpointed GNMF (one program per iteration, a snapshot after each)
//! over a disk-backed `SharedStore` capped at half the measured working
//! set, in a fresh directory per run; the run ends by reopening the
//! directory, recovering the last snapshot and reading W and H back.
//! Spill writes, checksum-verified reloads, snapshot manifests and
//! recovery — writes beside reads on `core.store` and `disk` — sit beside
//! the same GNMF kernels as `gnmf_sim` at a quarter of the size: a store
//! gain shows here and nowhere else, a kernel gain only in proportion.
//!
//! Disk numbers are the sandbox's page cache, not a device.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dmac_apps::gnmf::GNMF_CHECKPOINT_NAMES;
use dmac_apps::Gnmf;
use dmac_core::engine::ExecReport;
use dmac_core::{Session, SharedStore, StoreStats};
use dmac_lang::Program;
use dmac_matrix::BlockedMatrix;

use crate::flops;
use crate::gnmf_sim::{LOCAL_THREADS, REFERENCE_TOLERANCE, WORKERS};
use crate::harness::{
    bits, counter_median, counter_values, max_rel_diff, probe, Batch, Ctx, Outcome, RunResult,
};
use crate::layers;
use crate::span::Recorder;
use crate::stats::median;

/// The generated inputs and the two programs of the checkpointed driver.
struct Job {
    cfg: Gnmf,
    block: usize,
    engine_seed: u64,
    v: BlockedMatrix,
    init: Program,
    step: Program,
}

pub struct GnmfSpill {
    job: Job,
    /// Half the resident bytes an uncapped run ends with.
    capacity: u64,
    scratch: PathBuf,
    next_dir: usize,
    /// (W, H) of the uncapped warm-up run.
    warm: (BlockedMatrix, BlockedMatrix),
}

/// Everything one pass of the driver produced.
struct Driven {
    reports: Vec<ExecReport>,
    w: BlockedMatrix,
    h: BlockedMatrix,
    stats: StoreStats,
}

impl Job {
    fn session(&self, store: SharedStore) -> Session {
        Session::builder()
            .workers(WORKERS)
            .local_threads(LOCAL_THREADS)
            .block_size(self.block)
            .seed(self.engine_seed)
            .store(store)
            .build()
    }

    /// The checkpointed driver (`Gnmf::run_checkpointed`, spelled out so
    /// that each program's report is kept and each layer call can carry a
    /// span). With a directory: capped disk-backed store, a snapshot per
    /// phase, then reopen + recover + read back. Without: the same
    /// programs over an unbounded in-memory store.
    fn drive(
        &self,
        rec: &mut Recorder,
        disk: Option<(&Path, Option<u64>)>,
    ) -> Result<Driven, String> {
        let err = |e: dmac_core::CoreError| e.to_string();
        let names: Vec<String> = GNMF_CHECKPOINT_NAMES
            .iter()
            .map(|s| s.to_string())
            .collect();
        let store = match disk {
            Some((dir, Some(cap))) => SharedStore::with_capacity_and_disk(cap, dir).map_err(err)?,
            Some((dir, None)) => SharedStore::with_disk(dir).map_err(err)?,
            None => SharedStore::new(),
        };
        let mut session = self.session(store.clone());
        let checkpoint =
            |rec: &mut Recorder, session: &Session, phase: u64| -> Result<(), String> {
                if disk.is_some() {
                    rec.span("core.store.checkpoint", |_| {
                        session.checkpoint(&names, phase)
                    })
                    .map_err(err)?;
                }
                Ok(())
            };

        let v = self.v.clone();
        rec.span("core.engine.bind", |_| session.bind("V", v))
            .map_err(err)?;
        let mut reports = Vec::with_capacity(self.cfg.iterations + 1);
        reports.push(
            rec.span("core.engine.exec", |_| session.run(&self.init))
                .map_err(err)?,
        );
        checkpoint(rec, &session, 0)?;
        for i in 0..self.cfg.iterations {
            reports.push(
                rec.span("core.engine.exec", |_| session.run(&self.step))
                    .map_err(err)?,
            );
            checkpoint(rec, &session, (i + 1) as u64)?;
        }
        let stats = store.stats();

        let (w, h) = match disk {
            None => rec.span("core.engine.fetch", |_| -> Result<_, String> {
                Ok((
                    session.env_value("W").map_err(err)?,
                    session.env_value("H").map_err(err)?,
                ))
            })?,
            Some((dir, _)) => {
                // A restart: nothing of the first store survives but the
                // directory.
                drop(session);
                drop(store);
                let reopened = rec.span("core.store.recover", |_| -> Result<_, String> {
                    let s = SharedStore::with_disk(dir).map_err(err)?;
                    s.recover().map_err(err)?;
                    Ok(s)
                })?;
                rec.span("core.engine.fetch", |_| -> Result<_, String> {
                    let read = |name: &str| {
                        reopened
                            .get(name)
                            .ok_or_else(|| format!("{name} missing after recovery"))?
                            .to_blocked()
                            .map_err(|e| e.to_string())
                    };
                    Ok((read("W")?, read("H")?))
                })?
            }
        };
        Ok(Driven {
            reports,
            w,
            h,
            stats,
        })
    }
}

impl GnmfSpill {
    fn fresh_dir(&mut self) -> PathBuf {
        self.next_dir += 1;
        self.scratch.join(format!("spill-{}", self.next_dir))
    }
}

impl Batch for GnmfSpill {
    /// Bits of (W, H) of the first uncapped warm-up run; every capped,
    /// recovered run must match.
    type Reference = (Vec<u64>, Vec<u64>);

    fn setup(ctx: &Ctx, rec: &mut Recorder) -> Result<Self, String> {
        let cfg = Gnmf {
            rows: ctx.size(2048, 128),
            cols: ctx.size(1536, 96),
            sparsity: 0.05,
            rank: ctx.size(64, 8),
            iterations: 6,
        };
        let block = ctx.size(128, 16);
        let v = rec.span("data.gen", |_| {
            dmac_data::uniform_sparse(cfg.rows, cfg.cols, cfg.sparsity, block, ctx.seed_for(1))
        });
        let (mut init, mut step) = (Program::new(), Program::new());
        rec.span("apps.build", |_| -> Result<(), String> {
            cfg.build_init(&mut init).map_err(|e| e.to_string())?;
            cfg.build_step(&mut step).map_err(|e| e.to_string())
        })?;
        let job = Job {
            cfg,
            block,
            engine_seed: ctx.seed_for(2),
            v,
            init,
            step,
        };
        // Warm-up doubles as the measurement of the working set: an
        // uncapped disk-backed run, whose resident bytes at the end are
        // what the capped runs get half of.
        let dir = ctx.scratch.join("spill-0");
        let warm = job.drive(&mut Recorder::new(false), Some((&dir, None)));
        let _ = std::fs::remove_dir_all(&dir);
        let warm = warm?;
        Ok(GnmfSpill {
            job,
            capacity: warm.stats.bytes / 2,
            scratch: ctx.scratch.clone(),
            next_dir: 0,
            warm: (warm.w, warm.h),
        })
    }

    fn reference(&mut self) -> Result<Self::Reference, String> {
        // Initial factors as the engine generates them: `random` cells key
        // on the matrix ids of the init program.
        let mut p = Program::new();
        let (w0, h0) = self.job.cfg.build_init(&mut p).map_err(|e| e.to_string())?;
        let seed = self.job.engine_seed;
        let random = |rows, cols, id| {
            BlockedMatrix::from_fn(rows, cols, self.job.block, |i, j| {
                dmac_core::engine::random_cell(seed, id, i, j)
            })
            .map_err(|e| e.to_string())
        };
        let w0 = random(self.job.cfg.rows, self.job.cfg.rank, w0.id)?;
        let h0 = random(self.job.cfg.rank, self.job.cfg.cols, h0.id)?;
        let (rw, rh) = self
            .job
            .cfg
            .reference(&self.job.v, w0, h0)
            .map_err(|e| e.to_string())?;
        let (w, h) = &self.warm;
        let diff = max_rel_diff(w, &rw).max(max_rel_diff(h, &rh));
        if diff > REFERENCE_TOLERANCE {
            return Err(format!(
                "warm-up result differs from Gnmf::reference by {diff:e} (limit {REFERENCE_TOLERANCE:e})"
            ));
        }
        Ok((bits(w), bits(h)))
    }

    fn flops_per_run(&self) -> f64 {
        let c = &self.job.cfg;
        (c.iterations as u64
            * flops::gnmf_iteration(
                c.rows as u64,
                c.cols as u64,
                c.rank as u64,
                self.job.v.nnz() as u64,
            )) as f64
    }

    fn run(
        &mut self,
        rec: &mut Recorder,
        _staged: bool,
        warm: &Self::Reference,
    ) -> Result<RunResult, String> {
        // The driver is already cut at layer boundaries; a staged run is
        // the same calls with the recorder on.
        let dir = self.fresh_dir();
        let t0 = Instant::now();
        let driven = rec.span("run", |rec| {
            self.job.drive(rec, Some((&dir, Some(self.capacity))))
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        let d = driven?;

        let mut failures = Vec::new();
        if (bits(&d.w), bits(&d.h)) != *warm {
            failures.push(
                "gnmf_spill: recovered factors are not bit-identical to the uncapped run".into(),
            );
        }
        if d.stats.dropped != 0 || d.stats.load_failures != 0 {
            failures.push(format!(
                "gnmf_spill: store dropped {} entries and failed {} loads",
                d.stats.dropped, d.stats.load_failures
            ));
        }
        let s = &d.stats;
        let counters = vec![
            ("core.store.spills", s.spills as f64),
            ("core.store.spill_bytes", s.spill_bytes as f64),
            ("core.store.loads", s.loads as f64),
            ("core.store.load_bytes", s.load_bytes as f64),
            ("core.store.snapshots", s.snapshots as f64),
            ("core.store.dropped", s.dropped as f64),
            ("core.store.load_failures", s.load_failures as f64),
            ("core.store.peak_footprint_bytes", s.peak_footprint as f64),
        ];
        let report_peak = d
            .reports
            .iter()
            .map(|r| r.trace.peak_resident())
            .max()
            .unwrap_or(0);
        Ok(RunResult {
            wall_s,
            wire_bytes: d.reports.iter().map(|r| r.comm.total_bytes()).sum(),
            peak_resident: report_peak.max(s.peak_footprint),
            failures,
            reports: d.reports,
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
        out.set("apps.build_ms", median(&rec.durations("apps.build")) * 1e3);

        // The in-memory twin: the same programs over an unbounded store
        // with no disk tier. What the capped run costs beyond it is the
        // store's (displacement, spill, reload, snapshots, recovery).
        let mut twin = Vec::new();
        let budget = Instant::now() + Duration::from_secs_f64(ctx.twin_seconds());
        while twin.len() < 3 || Instant::now() < budget {
            let t0 = Instant::now();
            let d = rec.span("twin.memory", |_| {
                self.job.drive(&mut Recorder::new(false), None)
            })?;
            twin.push(t0.elapsed().as_secs_f64());
            if (bits(&d.w), bits(&d.h)) != (bits(&self.warm.0), bits(&self.warm.1)) {
                return Err("gnmf_spill: in-memory twin diverged from the uncapped run".into());
            }
        }
        out.set(
            "core.store.overhead_s",
            (plain_median_s - median(&twin)).max(0.0),
        );

        out.set(
            "core.store.checkpoint_s",
            layers::per_run_span(rec, "core.store.checkpoint"),
        );
        out.set(
            "core.store.recover_ms",
            layers::per_run_span(rec, "core.store.recover") * 1e3,
        );
        let store_counters: Vec<&'static str> = staged
            .first()
            .map(|r| r.counters.iter().map(|(name, _)| *name).collect())
            .unwrap_or_default();
        for name in store_counters {
            out.set(name, counter_median(staged, name));
        }
        // Which entry is displaced depends on LRU order under concurrent
        // kernels, so the spill count is not exact; report how far it moves.
        let spills = counter_values(staged, "core.store.spills");
        let spread = spills.iter().cloned().fold(f64::MIN, f64::max)
            - spills.iter().cloned().fold(f64::MAX, f64::min);
        out.set(
            "core.store.spills_spread",
            if spills.is_empty() { 0.0 } else { spread },
        );

        self.probe_store(out)?;
        layers::probe_verify(
            &self.job.step,
            &[("V", &self.job.v)],
            self.job.block,
            WORKERS,
            out,
        )?;
        layers::probe_measure(&[&self.job.v], out);
        layers::probe_gnmf_kernels(&self.job.v, self.job.cfg.rank, WORKERS, LOCAL_THREADS, out);

        // The driver plans inside `Session::run`; time the step program's
        // lint and planning on their own, against the state one iteration
        // leaves behind.
        let mut s = self.job.session(SharedStore::new());
        s.bind("V", self.job.v.clone()).map_err(|e| e.to_string())?;
        s.run(&self.job.init).map_err(|e| e.to_string())?;
        let prep = s.prepare(&self.job.step).map_err(|e| e.to_string())?;
        out.set(
            "core.planner.certified_peak_bytes",
            prep.certificate().peak as f64,
        );
        let budget = layers::PROBE_BUDGET;
        let plan_s = probe(budget, 3, || {
            drop(std::hint::black_box(s.prepare(&self.job.step)))
        });
        out.set("core.planner.plan_ms", plan_s * 1e3);
        let lint_s = probe(budget, 3, || {
            std::hint::black_box(dmac_analyze::lint_program(&self.job.step));
        });
        out.set("analyze.lint_us", lint_s * 1e6);
        Ok(())
    }

    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}

impl GnmfSpill {
    /// `core.store.{spill,load}_mb_per_s`: insert a W-sized matrix into a
    /// disk-backed store whose budget holds only one, so every insert
    /// displaces the other name to disk; then `get` a spilled name, which
    /// reloads and verifies it. Bytes are the store's own counters.
    fn probe_store(&mut self, out: &mut Outcome) -> Result<(), String> {
        let dir = self.fresh_dir();
        let result = (|| -> Result<(f64, f64), String> {
            let w =
                dmac_data::dense_random(self.job.cfg.rows, self.job.cfg.rank, self.job.block, 11);
            let dist = |m: &BlockedMatrix| {
                dmac_cluster::DistMatrix::from_blocked(
                    m,
                    dmac_cluster::PartitionScheme::Row,
                    WORKERS,
                )
            };
            let bytes = dist(&w).logical_bytes();
            let store = SharedStore::with_capacity_and_disk(bytes + bytes / 2, &dir)
                .map_err(|e| e.to_string())?;
            let budget = layers::PROBE_BUDGET;
            let mut i = 0u64;
            let before = store.stats();
            let mut spill_s = 0.0;
            let start = Instant::now();
            while i < 4 || start.elapsed() < budget {
                // Fresh contents each time: identical blobs are deduplicated
                // by content address and would write nothing.
                let m = dist(&dmac_data::dense_random(
                    self.job.cfg.rows,
                    self.job.cfg.rank,
                    self.job.block,
                    100 + i,
                ));
                let name = if i.is_multiple_of(2) { "a" } else { "b" };
                let t0 = Instant::now();
                store.insert(name, m).map_err(|e| e.to_string())?;
                spill_s += t0.elapsed().as_secs_f64();
                i += 1;
            }
            let mid = store.stats();
            let load_s = probe(budget, 4, || {
                // Reading the spilled name reloads it and displaces the other.
                let name = if store.is_spilled("a") { "a" } else { "b" };
                std::hint::black_box(store.get(name));
            });
            let after = store.stats();
            let spilled_mb = (mid.spill_bytes - before.spill_bytes) as f64 / 1e6;
            let loads = (after.loads - mid.loads).max(1) as f64;
            let load_mb = (after.load_bytes - mid.load_bytes) as f64 / 1e6 / loads;
            Ok((spilled_mb / spill_s, load_mb / load_s))
        })();
        let _ = std::fs::remove_dir_all(&dir);
        let (spill, load) = result?;
        out.set("core.store.spill_mb_per_s", spill);
        out.set("core.store.load_mb_per_s", load);
        Ok(())
    }
}
