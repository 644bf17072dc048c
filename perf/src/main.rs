//! `perf` — the repo's layered benchmark (see `README.md` beside this
//! package and `BENCHMARK.json` at the repo root).
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]   one workload, one result line
//! perf [--seed N] [--seconds S] [--trace] [--out DIR]                all four, one after another
//! perf compare DIR_A DIR_B                                           verdict per (workload, metric)
//! perf --list                                                        every metric; checks BENCHMARK.json
//! ```
//!
//! The last line of standard output of a one-workload run is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod compare;
mod flops;
mod gnmf_sim;
mod gnmf_spill;
mod harness;
mod layers;
mod metrics;
mod pagerank_socket;
mod serve_mix;
mod span;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dmac_core::json::{arr_of, JsonObj};

use harness::{Ctx, Outcome};
use metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use span::Recorder;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    quick: bool,
}

const USAGE: &str =
    "usage: perf [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR] [--quick]
       perf compare DIR_A DIR_B
       perf --list";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
        quick: false,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        argv.get(*i)
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => a.workload = Some(value(&mut i)?.clone()),
            "--seed" => a.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    a.trace = false;
                    i += 1;
                }
                Some("1") => {
                    a.trace = true;
                    i += 1;
                }
                _ => a.trace = true,
            },
            "--out" => a.out = Some(PathBuf::from(value(&mut i)?)),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|x| x.name == w) {
            let names: Vec<_> = WORKLOADS.iter().map(|x| x.name).collect();
            return Err(format!("unknown workload {w:?}; one of {names:?}"));
        }
    }
    Ok(a)
}

/// `run_seconds` of `BENCHMARK.json`: the timed phase when `--seconds`
/// is not given.
const DEFAULT_SECONDS: f64 = 25.0;

/// A directory for the benchmark's files, beside the executable (that
/// is, inside the build's target directory and nowhere else).
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("perf-tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_workload(name: &str, ctx: &Ctx, rec: &mut Recorder) -> Result<Outcome, String> {
    match name {
        "gnmf_sim" => harness::drive_batch::<gnmf_sim::GnmfSim>(ctx, rec),
        "pagerank_socket" => harness::drive_batch::<pagerank_socket::PageRankSocket>(ctx, rec),
        "gnmf_spill" => harness::drive_batch::<gnmf_spill::GnmfSpill>(ctx, rec),
        "serve_mix" => serve_mix::drive(ctx, rec),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The contract's result line for one run.
fn result_line(out: &Outcome, reported: &[Metric]) -> String {
    let mut metrics = JsonObj::new();
    for m in reported {
        let value = out.values.get(m.name).copied().unwrap_or(0.0);
        let metric = JsonObj::new().f64("value", value).str("unit", m.unit);
        metrics = metrics.raw(m.name, &metric.build());
    }
    JsonObj::new()
        .bool("correct", out.failed == 0)
        .u64("attempted", out.attempted)
        .u64("failed", out.failed)
        .raw("metrics", &metrics.build())
        .build()
}

/// The results document `perf compare` reads: the result line's content
/// plus seed, reason, noise mark and the samples behind the timings.
fn result_doc(name: &str, ctx: &Ctx, out: &Outcome, reported: &[Metric]) -> String {
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map_or("", |w| w.why);
    let mut metrics = JsonObj::new();
    for m in reported {
        let mut j = JsonObj::new()
            .f64("value", out.values.get(m.name).copied().unwrap_or(0.0))
            .str("unit", m.unit);
        if let Some(samples) = out.samples.get(m.name) {
            j = j.raw(
                "samples",
                &arr_of(samples.iter().map(|s| dmac_core::json::number(*s))),
            );
        }
        metrics = metrics.raw(m.name, &j.build());
    }
    JsonObj::new()
        .str("workload", name)
        .str("why", why)
        .u64("seed", ctx.seed)
        .f64("seconds", ctx.seconds)
        .bool("trace", ctx.trace)
        .bool("quick", ctx.quick)
        .bool("noisy", out.noisy())
        .f64(
            "calib_ms",
            out.values.get("host.calib_ms").copied().unwrap_or(0.0),
        )
        .f64(
            "calib_spread",
            out.values.get("host.calib_spread").copied().unwrap_or(0.0),
        )
        .u64(
            "threads_available",
            std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
        )
        .u64("attempted", out.attempted)
        .u64("failed", out.failed)
        .raw("metrics", &metrics.build())
        .build()
}

fn print_table(name: &str, out: &Outcome, reported: &[Metric]) {
    println!(
        "workload {name}{}",
        if out.noisy() {
            "  (noisy host: calibration spread > 10 %)"
        } else {
            ""
        }
    );
    for m in reported {
        let v = out.values.get(m.name).copied().unwrap_or(0.0);
        let n = out
            .samples
            .get(m.name)
            .map_or(String::new(), |s| format!("  n={}", s.len()));
        println!("  {:<40} {:>16.6} {}{}", m.name, v, m.unit, n);
    }
    for f in out.failures.iter().take(5) {
        println!("  FAILED: {f}");
    }
}

fn write_out(dir: &Path, file: &str, content: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, content).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, in this process.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: args.trace,
        quick: args.quick,
        scratch: scratch_dir()?,
    };
    let mut rec = Recorder::new(ctx.trace);
    let result = run_workload(name, &ctx, &mut rec);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let out = result?;

    let reported = if ctx.trace { PER_LAYER } else { END_TO_END };
    for m in reported {
        if !out.values.contains_key(m.name) && !ctx.trace {
            return Err(format!("workload {name} did not produce {}", m.name));
        }
    }
    print_table(name, &out, reported);
    if let Some(dir) = &args.out {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        let tag = format!("{name}-t{}-s{}-{stamp}", ctx.trace as u8, ctx.seed);
        write_out(
            dir,
            &format!("{tag}.json"),
            &result_doc(name, &ctx, &out, reported),
        )?;
        if ctx.trace {
            write_out(dir, &format!("trace-{name}.json"), &rec.to_chrome_json())?;
            let mut summary = String::new();
            for (span, t) in span::summarize(rec.spans()) {
                summary.push_str(&format!(
                    "{span:<28} calls {:>6}  total {:>10.4} s  self {:>10.4} s\n",
                    t.calls, t.total, t.self_time
                ));
            }
            write_out(dir, &format!("trace-{name}.txt"), &summary)?;
        }
    }
    println!("{}", result_line(&out, reported));
    Ok(out.failed == 0)
}

/// All four workloads, each in a process of its own (so `VmHWM` and the
/// allocator's state are one workload's, as they are under the driver).
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()]);
            cmd.args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if let Some(dir) = &args.out {
                cmd.arg("--out").arg(dir);
            }
            if args.quick {
                cmd.arg("--quick");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            ok &= status.success();
        }
    }
    Ok(ok)
}

fn list() -> Result<bool, String> {
    print!("{}", metrics::listing());
    let mut errs = metrics::self_check();
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => errs.extend(metrics::disagreements(&text)),
        Err(e) => errs.push(format!(
            "BENCHMARK.json (looked in the current directory): {e}"
        )),
    }
    for e in &errs {
        eprintln!("perf --list: {e}");
    }
    Ok(errs.is_empty())
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        // The socket transport spawns `dmac-workerd --connect …`; this
        // executable stands in for it (see `pagerank_socket`), so the
        // benchmark builds one program and finds its workers wherever the
        // build put it.
        Some("--connect") => pagerank_socket::worker_main(&argv).map(|()| true),
        Some("compare") => match &argv[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err(USAGE.into()),
        },
        Some("--list") => list(),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => {
            let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
            match &args.workload {
                Some(name) => run_one(name, &args),
                None => run_all(&args),
            }
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_hand_forms_of_trace_parse() {
        let a = args("--workload gnmf_sim --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("gnmf_sim"), 7, Some(20.0), true)
        );
        assert!(!args("--trace 0 --seed 3").unwrap().trace);
        assert!(args("--trace --seed 3").unwrap().trace);
        assert!(args("--seed 3 --trace").unwrap().trace);
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
    }
}
