//! Figure 10: scalability — (a) GNMF and (b) Linear Regression vs input
//! size (#non-zeros, columns fixed); (c) GNMF and (d) Linear Regression vs
//! worker count.
//!
//! Paper result: the DMac/SystemML-S gap *grows* with input size (DMac
//! repartitions `V`/`W` once, SystemML-S every iteration), and DMac's
//! per-iteration time falls smoothly from 4 to 20 workers (65 s → 20 s for
//! GNMF, a 3.25× speedup).

use dmac_apps::{Gnmf, LinearRegression};
use dmac_bench::{builder_for, fmt_sec, header, per_system, DMAC_VS_SYSTEMML, WORKERS};
use dmac_core::session::SessionBuilder;

/// Sessions for the worker sweep use a proportionally faster model
/// network: the paper's compute-to-communication ratio at 2B non-zeros on
/// gigabit Ethernet is ~50:1 per GNMF iteration; scaling the data down
/// 1000x shrinks compute far more than the N-proportional broadcast
/// traffic, so the model bandwidth is raised to keep the experiment in
/// the same regime (see EXPERIMENTS.md).
fn sweep_builder(workers: usize, block: usize) -> SessionBuilder {
    builder_for(workers, block).network(dmac_cluster::NetworkModel {
        bandwidth_bytes_per_sec: 1.0e9,
        latency_sec: 2e-4,
    })
}

pub fn run() {
    let block = 256;
    let iterations = 3;

    // ---- (a)/(b): input-size sweep. Paper: cols fixed at 100 000, rows
    // swept so nnz goes 250M → 1.5B; we fix cols at 2 000 and sweep nnz
    // 0.25M → 1.5M (÷1000).
    let cols = 2_000;
    let nnz_sweep_m: [f64; 4] = [0.25, 0.5, 1.0, 1.5];

    header("Figure 10(a) — GNMF avg time/iteration vs #nonzeros");
    println!(
        "{:>12}{:>10}{:>12}{:>14}{:>8}",
        "nnz(million)", "rows", "DMac", "SystemML-S", "ratio"
    );
    for &m in &nnz_sweep_m {
        let nnz = (m * 1e6) as usize;
        let sparsity = 0.01;
        let rows = (nnz as f64 / (cols as f64 * sparsity)) as usize;
        let v = dmac_data::uniform_sparse(rows, cols, sparsity, block, 19);
        let cfg = Gnmf {
            rows,
            cols,
            sparsity,
            rank: 32,
            iterations,
        };
        let t = per_system(DMAC_VS_SYSTEMML, &builder_for(WORKERS, block), |s| {
            let (report, _) = cfg.run(s, v.clone()).expect("gnmf");
            report.sim.total_sec() / iterations as f64
        });
        println!(
            "{:>12.2}{:>10}{:>12}{:>14}{:>7.1}x",
            m,
            rows,
            fmt_sec(t[0]),
            fmt_sec(t[1]),
            t[1] / t[0]
        );
    }

    header("Figure 10(b) — Linear Regression avg time/iteration vs #nonzeros");
    println!(
        "{:>12}{:>10}{:>12}{:>14}{:>8}",
        "nnz(million)", "rows", "DMac", "SystemML-S", "ratio"
    );
    for &m in &nnz_sweep_m {
        let nnz = (m * 1e6) as usize;
        let sparsity = 0.01;
        let rows = (nnz as f64 / (cols as f64 * sparsity)) as usize;
        let v = dmac_data::uniform_sparse(rows, cols, sparsity, block, 29);
        let y = dmac_data::dense_random(rows, 1, block, 30);
        let cfg = LinearRegression {
            rows,
            features: cols,
            sparsity,
            lambda: 1e-6,
            iterations,
        };
        let t = per_system(DMAC_VS_SYSTEMML, &builder_for(WORKERS, block), |s| {
            let (report, _) = cfg.run(s, v.clone(), y.clone()).expect("linreg");
            report.sim.total_sec() / iterations as f64
        });
        println!(
            "{:>12.2}{:>10}{:>12}{:>14}{:>7.1}x",
            m,
            rows,
            fmt_sec(t[0]),
            fmt_sec(t[1]),
            t[1] / t[0]
        );
    }
    println!("paper: the gap grows with input size.");

    // ---- (c)/(d): worker sweep on a fixed matrix (paper: 2B nnz on
    // 4..20 workers; ours: 2M nnz ÷1000).
    let sparsity = 0.01;
    let rows = (2e6 / (cols as f64 * sparsity)) as usize;
    let rank = 64;
    let worker_sweep = [4usize, 8, 12, 16, 20];

    header("Figure 10(c) — GNMF avg time/iteration vs #workers");
    let v = dmac_data::uniform_sparse(rows, cols, sparsity, block, 37);
    let cfg = Gnmf {
        rows,
        cols,
        sparsity,
        rank,
        iterations,
    };
    // untimed warm-up: fault in allocator pools so the first measured
    // configuration is not inflated
    {
        let mut s = sweep_builder(worker_sweep[0], block).build();
        let _ = cfg.run(&mut s, v.clone()).expect("warmup");
    }
    println!("{:>9}{:>12}{:>14}", "workers", "DMac", "SystemML-S");
    let mut first_dmac = 0.0;
    let mut last_dmac = 0.0;
    for &w in &worker_sweep {
        let t = per_system(DMAC_VS_SYSTEMML, &sweep_builder(w, block), |s| {
            let (report, _) = cfg.run(s, v.clone()).expect("gnmf");
            report.sim.total_sec() / iterations as f64
        });
        if w == worker_sweep[0] {
            first_dmac = t[0];
        }
        last_dmac = t[0];
        println!("{:>9}{:>12}{:>14}", w, fmt_sec(t[0]), fmt_sec(t[1]));
    }
    println!(
        "DMac speedup 4 -> 20 workers: {:.2}x   (paper: ~3.25x)",
        first_dmac / last_dmac
    );

    header("Figure 10(d) — Linear Regression avg time/iteration vs #workers");
    let y = dmac_data::dense_random(rows, 1, block, 38);
    let cfg = LinearRegression {
        rows,
        features: cols,
        sparsity,
        lambda: 1e-6,
        iterations,
    };
    println!("{:>9}{:>12}{:>14}", "workers", "DMac", "SystemML-S");
    for &w in &worker_sweep {
        let t = per_system(DMAC_VS_SYSTEMML, &sweep_builder(w, block), |s| {
            let (report, _) = cfg.run(s, v.clone(), y.clone()).expect("linreg");
            report.sim.total_sec() / iterations as f64
        });
        println!("{:>9}{:>12}{:>14}", w, fmt_sec(t[0]), fmt_sec(t[1]));
    }
    println!("paper: DMac improves gradually with more workers.");
}
