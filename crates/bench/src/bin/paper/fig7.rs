//! Figure 7: local-engine memory — In-Place vs Buffer aggregation on the
//! four graphs of Table 3, for the block-based matrix multiplication
//! `A · A` (squaring the adjacency matrix).
//!
//! Paper result: In-Place uses far less memory everywhere; the gap widens
//! with graph density (LiveJournal ≈ 5 GB gap), and Buffer cannot finish
//! wikipedia within the 48 GB node at all. We reproduce the ordering and
//! the blow-up with a scaled memory budget standing in for the 48 GB node.

use dmac_bench::{fmt_bytes, fmt_sec, header, timed};
use dmac_matrix::mem::PeakGuard;
use dmac_matrix::{AggregationMode, LocalExecutor};

pub fn run() {
    header("Figure 7 — In-Place vs Buffer memory usage (A · A per graph)");
    // Scale ÷2000 node-wise, preserving average degree; the budget scales
    // the paper's 48 GB node accordingly.
    let budget: usize = 256 << 20; // stand-in for the 48 GB node
    let block = 64;
    let threads = 4;
    println!(
        "Table 3 graphs at 1/1000 scale (wikipedia 1/4000), block {block}, {threads} threads, node budget {}",
        fmt_bytes(budget as u64)
    );
    println!(
        "{:<14}{:>10}{:>10}{:>14}{:>14}{:>10}{:>10}",
        "graph", "nodes", "edges", "In-Place", "Buffer", "t(IP)", "t(Buf)"
    );

    for preset in dmac_data::TABLE3_GRAPHS {
        let scale = if preset.name == "Wikipedia" {
            4000
        } else {
            1000
        };
        let (nodes, edges) = preset.scaled(scale);
        let a = dmac_data::powerlaw_graph(nodes, edges, block, 7);

        let ex_ip = LocalExecutor::new(threads, AggregationMode::InPlace);
        let guard = PeakGuard::start();
        let (r1, t_ip) = timed(|| ex_ip.matmul(&a, &a).expect("in-place multiply"));
        let ip_peak = guard.peak_delta();
        drop(r1);

        let ex_buf = LocalExecutor::new(threads, AggregationMode::Buffer);
        let guard = PeakGuard::start();
        let (r2, t_buf) = timed(|| ex_buf.matmul(&a, &a).expect("buffer multiply"));
        let buf_peak = guard.peak_delta();
        drop(r2);

        let oom = if buf_peak > budget {
            "  << exceeds node budget (paper: OOM)"
        } else {
            ""
        };
        println!(
            "{:<14}{:>10}{:>10}{:>14}{:>14}{:>10}{:>10}{}",
            preset.name,
            nodes,
            a.nnz(),
            fmt_bytes(ip_peak as u64),
            fmt_bytes(buf_peak as u64),
            fmt_sec(t_ip),
            fmt_sec(t_buf),
            oom
        );
    }
    println!("\npaper: In-Place ≪ Buffer on every graph; Buffer OOMs on wikipedia.");
}
