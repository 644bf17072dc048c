//! PageRank (paper Code 2) over a synthetic power-law graph, printing the
//! top-ranked nodes and the per-iteration communication DMac needs (only
//! the small rank vector moves once the link matrix is cached — the §6.4
//! observation). The program runs twice on one session: the first run
//! partitions the link matrix in its first iteration, the second re-binds
//! the identical matrix, which keeps its placement, and moves the rank
//! vector alone from the start.
//!
//! ```sh
//! cargo run --release --example pagerank
//! ```

use dmac::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes = 20_000;
    let edges = 300_000;
    let block = 256;
    let g = dmac::data::powerlaw_graph(nodes, edges, block, 11);
    let cfg = PageRank {
        nodes,
        link_sparsity: edges as f64 / (nodes as f64 * nodes as f64),
        damping: 0.85,
        iterations: 10,
    };
    println!(
        "PageRank over {} nodes / {} edges, {} iterations",
        nodes,
        g.nnz(),
        cfg.iterations
    );

    let mut session = Session::builder()
        .workers(4)
        .local_threads(2)
        .block_size(block)
        .build();
    let show = |run: usize, report: &ExecReport| {
        println!(
            "run {run}: simulated time {:.3}s, {} total; per-iteration communication:",
            report.sim.total_sec(),
            report.comm
        );
        for (i, phase) in report.per_phase.iter().enumerate() {
            println!(
                "  iter {:>2}: {:>10.1} KB moved, {:>7.2} ms",
                i + 1,
                phase.total_bytes() as f64 / 1e3,
                phase.total_sec() * 1e3
            );
        }
    };
    let (first, _) = cfg.run(&mut session, &g)?;
    show(1, &first);
    let (second, handles) = cfg.run(&mut session, &g)?;
    show(2, &second);

    let rank = session.value(handles.rank)?;
    let mut scored: Vec<(usize, f64)> = rank
        .to_triplets()
        .into_iter()
        .map(|(_, j, v)| (j, v))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("top 5 nodes by rank:");
    for (node, score) in scored.into_iter().take(5) {
        println!("  node {node:>6}: {score:.6}");
    }
    Ok(())
}
