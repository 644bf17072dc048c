//! Figure 8: influence of block size on the local engine — (a) execution
//! time and (b) memory usage of `A · A` over a sweep of block sizes, for
//! three graphs (LiveJournal, soc-pokec, cit-Patents at scale).
//!
//! Paper result: both curves are U-shaped-ish. Small blocks waste memory
//! on duplicated Column-Start-Index arrays (19 GB vs the ideal 6 GB for
//! LiveJournal at 10k) and time on task overhead; blocks beyond the
//! Equation-3 threshold `m ≤ sqrt(MN/(L·K))` starve the `L·K`-way
//! parallelism and execution time rises again. We print the Eq-3
//! threshold next to each curve; the measured minimum should sit near it.

use dmac_bench::{fmt_bytes, fmt_sec, header, timed};
use dmac_matrix::blocking::{block_size_upper_bound, model_sparse_bytes, BlockingConfig};
use dmac_matrix::mem::PeakGuard;
use dmac_matrix::{AggregationMode, LocalExecutor};

pub fn run() {
    header("Figure 8 — influence of block size (A · A per graph)");
    let scale = 500;
    let threads = 4; // the paper's L = 8 on its nodes; L·K = 32 there
    let workers = 4;
    let sweep = [16usize, 32, 64, 128, 256, 512, 1024, 2048];
    println!(
        "graphs at 1/{scale} scale, {threads} threads; Eq-3 bound uses K = {workers}, L = {threads}"
    );

    for preset in [
        dmac_data::LIVEJOURNAL,
        dmac_data::SOC_POKEC,
        dmac_data::CIT_PATENTS,
    ] {
        let (nodes, edges) = preset.scaled(scale);
        let a = dmac_data::powerlaw_graph(nodes, edges, 64, 13);
        let cfg = BlockingConfig {
            workers,
            local_parallelism: threads,
            min_block: 1,
            max_block: usize::MAX,
        };
        let bound = block_size_upper_bound(nodes, nodes, &cfg);
        let sparsity = a.nnz() as f64 / (nodes as f64 * nodes as f64);
        println!(
            "\n{}: {} nodes, {} edges — Eq-3 block-size threshold ≈ {}",
            preset.name,
            nodes,
            a.nnz(),
            bound
        );
        println!(
            "{:>8}{:>12}{:>14}{:>16}",
            "block", "time", "peak mem", "Eq-2 model mem"
        );
        for &m in &sweep {
            if m > nodes {
                continue;
            }
            let am = a.reblock(m).expect("reblock");
            let ex = LocalExecutor::new(threads, AggregationMode::InPlace);
            let guard = PeakGuard::start();
            let (r, t) = timed(|| ex.matmul(&am, &am).expect("multiply"));
            let peak = guard.peak_delta();
            drop(r);
            let model = model_sparse_bytes(nodes, nodes, sparsity, m);
            let marker = if m >= bound {
                "  (beyond Eq-3 bound)"
            } else {
                ""
            };
            println!(
                "{:>8}{:>12}{:>14}{:>16}{}",
                m,
                fmt_sec(t),
                fmt_bytes(peak as u64),
                fmt_bytes(model as u64),
                marker
            );
        }
    }
    println!("\npaper: time is worst at both extremes; memory falls as blocks grow");
    println!("(Column-Start-Index duplication), with the sweet spot near the Eq-3 bound.");
}
