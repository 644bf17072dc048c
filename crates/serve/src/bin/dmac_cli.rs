//! `dmac-cli` — client for a running `dmac-served`.
//!
//! ```text
//! dmac-cli submit   --addr HOST:PORT [--session S] [--deadline-ms N] FILE|-
//! dmac-cli explain  --addr HOST:PORT [--session S] FILE|-
//! dmac-cli lint     [--addr HOST:PORT] [--json] FILE|-
//! dmac-cli fetch    --addr HOST:PORT NAME
//! dmac-cli stats    --addr HOST:PORT
//! dmac-cli shutdown --addr HOST:PORT
//! dmac-cli smoke    --addr HOST:PORT [--clients N] [--repeats N]
//!                   [--min-hit-rate F] [--no-shutdown]
//! ```
//!
//! `lint` runs the `dmac-analyze` checks without planning or executing
//! anything. With no `--addr` it lints locally (full caret rendering);
//! with `--addr` it asks the server, exercising the same admission
//! checks `submit` runs. Exit status is 1 when any diagnostic has
//! error severity.
//!
//! `smoke` runs the concurrent GNMF/PageRank workload from
//! `dmac_serve::smoke` — N client threads, plan-cache hit-rate gate,
//! bit-identity against a serial replay — and exits non-zero on any
//! failure (how `scripts/verify.sh` gates the service).

use std::io::Read as _;

use dmac_cluster::codec::Value;
use dmac_serve::protocol::WireDiagnostic;
use dmac_serve::smoke::{run_smoke, SmokeConfig};
use dmac_serve::Client;

fn usage() -> ! {
    eprintln!(
        "usage: dmac-cli <submit|explain|lint|fetch|stats|shutdown|smoke> --addr HOST:PORT [options]\n\
         \x20 submit   [--session S] [--deadline-ms N] FILE|-\n\
         \x20 explain  [--session S] FILE|-\n\
         \x20 lint     [--json] FILE|-   (lints locally when --addr is omitted)\n\
         \x20 fetch    NAME\n\
         \x20 smoke    [--clients N] [--repeats N] [--min-hit-rate F] [--no-shutdown]"
    );
    std::process::exit(2)
}

fn take(args: &[String], i: &mut usize) -> String {
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| usage())
}

fn read_script(path: &str) -> String {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).expect("read stdin");
        s
    } else {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("dmac-cli: cannot read {path}: {e}");
            std::process::exit(1);
        })
    }
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("dmac-cli: {e}");
    std::process::exit(1)
}

fn connect(addr: &str) -> Client {
    if addr.is_empty() {
        usage();
    }
    Client::connect(addr).unwrap_or_else(|e| fail(e))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        usage()
    };

    let mut addr = String::new();
    let mut session = "cli".to_string();
    let mut deadline_ms: Option<u64> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut clients = 8usize;
    let mut repeats = 4usize;
    let mut min_hit_rate = 0.5f64;
    let mut shutdown_at_end = true;
    let mut json_out = false;

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = take(&args, &mut i),
            "--session" => session = take(&args, &mut i),
            "--deadline-ms" => {
                deadline_ms = Some(take(&args, &mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--clients" => clients = take(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--repeats" => repeats = take(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--min-hit-rate" => {
                min_hit_rate = take(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--no-shutdown" => shutdown_at_end = false,
            "--json" => json_out = true,
            "--help" | "-h" => usage(),
            other => positional.push(other.to_string()),
        }
        i += 1;
    }

    match cmd.as_str() {
        "submit" => {
            let Some(path) = positional.first() else {
                usage()
            };
            let script = read_script(path);
            let mut cli = connect(&addr);
            let res = cli
                .submit(&session, &script, deadline_ms)
                .unwrap_or_else(|e| fail(e));
            println!(
                "request {}: {} plan, {:.6} simulated sec, stored [{}], trace {:016x}",
                res.request_id,
                if res.plan_cached { "cached" } else { "fresh" },
                res.sim_sec,
                res.stored.join(", "),
                res.golden_fnv,
            );
        }
        "explain" => {
            let Some(path) = positional.first() else {
                usage()
            };
            let script = read_script(path);
            let mut cli = connect(&addr);
            println!(
                "{}",
                cli.explain(&session, &script).unwrap_or_else(|e| fail(e))
            );
        }
        "lint" => {
            let Some(path) = positional.first() else {
                usage()
            };
            let script = read_script(path);
            let ok = if addr.is_empty() {
                lint_local(&script, json_out)
            } else {
                lint_remote(&mut connect(&addr), &script, json_out)
            };
            if !ok {
                std::process::exit(1);
            }
        }
        "fetch" => {
            let Some(name) = positional.first() else {
                usage()
            };
            let mut cli = connect(&addr);
            let (rows, cols, bits) = cli.fetch(name).unwrap_or_else(|e| fail(e));
            println!("{name}: {rows}x{cols}");
            for r in 0..rows.min(8) {
                let row: Vec<String> = (0..cols.min(8))
                    .map(|c| format!("{:10.4}", f64::from_bits(bits[r * cols + c])))
                    .collect();
                println!("  {}", row.join(" "));
            }
            if rows > 8 || cols > 8 {
                println!("  ... ({rows}x{cols} total)");
            }
        }
        "stats" => {
            let mut cli = connect(&addr);
            let stats = cli.stats().unwrap_or_else(|e| fail(e));
            println!("{stats}");
        }
        "shutdown" => {
            let mut cli = connect(&addr);
            cli.shutdown().unwrap_or_else(|e| fail(e));
            println!("server draining");
        }
        "smoke" => {
            if addr.is_empty() {
                usage();
            }
            let cfg = SmokeConfig {
                addr,
                clients,
                repeats,
                min_hit_rate,
                shutdown_at_end,
                ..SmokeConfig::default()
            };
            let report = run_smoke(&cfg);
            println!(
                "smoke: {} submissions in {:.2}s ({:.1}/s), plan-cache hit rate {:.3}",
                report.completed, report.wall_sec, report.throughput, report.hit_rate
            );
            if report.ok() {
                println!("smoke: PASS");
            } else {
                for f in &report.failures {
                    eprintln!("smoke FAIL: {f}");
                }
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}

/// Lint locally via `dmac-analyze`; returns false on error diagnostics.
///
/// The exit verdict comes from [`dmac_serve::protocol::lint_exit_ok`]
/// over the *printed* diagnostics, so `--json` and rendered output can
/// never disagree about the process exit code.
fn lint_local(script: &str, json_out: bool) -> bool {
    let report = dmac_analyze::lint_script(script);
    if json_out {
        let wire = report.diagnostics.iter().map(WireDiagnostic::from);
        print_json(wire.collect());
    } else {
        for d in &report.diagnostics {
            println!("{}", d.render(script));
        }
        if report.diagnostics.is_empty() {
            println!("lint: clean");
        }
    }
    dmac_serve::protocol::lint_exit_ok(report.diagnostics.iter().map(|d| d.severity.name()))
}

/// Lint through a running server. The exit verdict is the stricter of
/// the server's `ok` field and the shared severity scan over the
/// diagnostics actually received — same derivation as [`lint_local`],
/// identical in `--json` and rendered mode.
fn lint_remote(cli: &mut Client, script: &str, json_out: bool) -> bool {
    let (ok, diags) = cli.lint(script).unwrap_or_else(|e| fail(e));
    let ok = ok && dmac_serve::protocol::lint_exit_ok(diags.iter().map(|d| d.severity.as_str()));
    if json_out {
        print_json(diags);
    } else {
        for d in &diags {
            println!("{}", d.headline());
        }
        if diags.is_empty() {
            println!("lint: clean");
        }
    }
    ok
}

/// Print diagnostics as one JSON array, through the protocol's encoder:
/// a local lint prints what the server's `lint` reply carries.
fn print_json(diags: Vec<WireDiagnostic>) {
    let mut out = String::new();
    diags.render(&mut out);
    println!("{out}");
}
