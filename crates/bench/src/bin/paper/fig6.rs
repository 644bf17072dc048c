//! Figure 6: GNMF on the Netflix(-like) dataset — (a) accumulated
//! execution time per iteration for DMac / SystemML-S / R, (b) accumulated
//! communication for DMac / SystemML-S.
//!
//! Paper result: DMac ≈ 1.6× faster than SystemML-S, both beat R;
//! SystemML-S ships ≈ 40 GB over 10 iterations vs ≈ 1.5 GB for DMac
//! (≈ 26×); communication is ~44 % of SystemML-S's time vs ~6 % of DMac's.

use dmac_apps::Gnmf;
use dmac_bench::{
    accumulated_series, builder_for, fmt_bytes, fmt_sec, header, per_system, session_for, WORKERS,
};
use dmac_core::baselines::SystemKind;

pub fn run() {
    // Netflix scaled ÷ ~18: 27 000 users × 1 000 movies at Netflix
    // sparsity; factor rank 64 (paper: 480 189 × 17 770, k = 200).
    let users = 27_000;
    let block = 256;
    let iterations = 10;
    let cfg = Gnmf {
        rows: users,
        cols: (users / 27).max(8),
        sparsity: 0.0117,
        rank: 64,
        iterations,
    };
    header("Figure 6 — GNMF on netflix-like data");
    println!(
        "V: {}x{} (sparsity {:.4}), k = {}, {} iterations, {} workers",
        cfg.rows, cfg.cols, cfg.sparsity, cfg.rank, iterations, WORKERS
    );

    let v = dmac_data::netflix_like(users, block, 42);
    // untimed warm-up run so the first measured system is not inflated by
    // allocator/page-fault effects
    {
        let warm = Gnmf {
            iterations: 1,
            ..cfg
        };
        let mut s = session_for(SystemKind::Dmac, WORKERS, block);
        let _ = warm.run(&mut s, v.clone()).expect("warmup");
    }
    // Per system: its accumulated (time, bytes) series and the fraction of
    // simulated time spent communicating.
    let systems = [SystemKind::Dmac, SystemKind::SystemMlS, SystemKind::RLocal];
    let rows = per_system(systems, &builder_for(WORKERS, block), |session| {
        let (report, _) = cfg.run(session, v.clone()).expect("gnmf run");
        (accumulated_series(&report), report.sim.comm_fraction())
    });

    println!("\n(a) accumulated execution time (simulated seconds)");
    print!("{:>4}", "iter");
    for system in &systems {
        print!("{:>14}", system.name());
    }
    println!();
    for i in 0..iterations {
        print!("{:>4}", i + 1);
        for (series, _) in &rows {
            print!("{:>14}", fmt_sec(series[i].0));
        }
        println!();
    }

    println!("\n(b) accumulated communication");
    print!("{:>4}", "iter");
    for system in systems.iter().take(2) {
        print!("{:>14}", system.name());
    }
    println!();
    for i in 0..iterations {
        print!("{:>4}", i + 1);
        for (series, _) in rows.iter().take(2) {
            print!("{:>14}", fmt_bytes(series[i].1));
        }
        println!();
    }

    let (dmac, sysml) = (&rows[0], &rows[1]);
    let (dmac_end, sysml_end) = (dmac.0.last().unwrap(), sysml.0.last().unwrap());
    let time_ratio = sysml_end.0 / dmac_end.0;
    let comm_ratio = sysml_end.1 as f64 / dmac_end.1.max(1) as f64;
    println!("\nsummary:");
    println!("  time  ratio SystemML-S / DMac = {time_ratio:.2}x   (paper: ~1.6x)");
    println!("  comm  ratio SystemML-S / DMac = {comm_ratio:.1}x   (paper: ~26x)");
    println!(
        "  comm fraction of total time: DMac {:.0}%  SystemML-S {:.0}%   (paper: 6% / 44%)",
        dmac.1 * 100.0,
        sysml.1 * 100.0
    );
}
