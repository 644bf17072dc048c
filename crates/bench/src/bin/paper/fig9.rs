//! Figure 9: performance on various matrix applications.
//!
//! (a) PageRank per-iteration execution time, DMac vs SystemML-S, on the
//!     four graphs of Table 3 — paper: DMac wins on every graph, ≈ 5× on
//!     Wikipedia (8 s vs 40 s per iteration), because DMac caches the
//!     Column scheme of the link matrix and only broadcasts the small
//!     rank vector each iteration.
//! (b) Linear Regression / Collaborative Filtering / SVD, execution time
//!     normalised to DMac — paper: LR > 7×, CF ≈ 1.75× (264 s / 151 s),
//!     SVD ≈ 3.3× (954 s / 291 s).

use dmac_apps::{CollaborativeFiltering, LinearRegression, PageRank, SvdLanczos};
use dmac_bench::{builder_for, fmt_sec, header, per_system, DMAC_VS_SYSTEMML, WORKERS};

pub fn run() {
    header("Figure 9(a) — PageRank, per-iteration execution time");
    let scale = 400;
    let iterations = 5;
    let block = 256;
    println!(
        "{:<14}{:>10}{:>12}{:>14}{:>8}",
        "graph", "nodes", "DMac", "SystemML-S", "ratio"
    );
    for preset in dmac_data::TABLE3_GRAPHS {
        let scale = if preset.name == "Wikipedia" {
            scale * 4
        } else {
            scale
        };
        let (nodes, edges) = preset.scaled(scale);
        let g = dmac_data::powerlaw_graph(nodes, edges, block, 17);
        let cfg = PageRank {
            nodes,
            link_sparsity: edges as f64 / (nodes as f64 * nodes as f64),
            damping: 0.85,
            iterations,
        };
        let per_iter = per_system(DMAC_VS_SYSTEMML, &builder_for(WORKERS, block), |s| {
            let (report, _) = cfg.run(s, &g).expect("pagerank");
            report.sim.total_sec() / iterations as f64
        });
        println!(
            "{:<14}{:>10}{:>12}{:>14}{:>7.1}x",
            preset.name,
            nodes,
            fmt_sec(per_iter[0]),
            fmt_sec(per_iter[1]),
            per_iter[1] / per_iter[0]
        );
    }
    println!("paper: DMac wins on all four graphs (~5x on Wikipedia).");

    header("Figure 9(b) — LR / CF / SVD, time normalised to DMac");
    println!(
        "{:<6}{:>12}{:>14}{:>18}{:>18}",
        "app", "DMac", "SystemML-S", "DMac (norm)", "SystemML-S (norm)"
    );

    // Linear Regression: paper uses a synthetic 1e8 x 1e5 matrix with 1e9
    // non-zeros; we scale to 60 000 x 2 000 with ~1.2M non-zeros.
    {
        let (rows, feats) = (60_000, 2_000);
        let sparsity = 1e-2;
        let cfg = LinearRegression {
            rows,
            features: feats,
            sparsity,
            lambda: 1e-6,
            iterations: 5,
        };
        let v = dmac_data::uniform_sparse(rows, feats, sparsity, 256, 23);
        let y = dmac_data::dense_random(rows, 1, 256, 24);
        let t = per_system(DMAC_VS_SYSTEMML, &builder_for(WORKERS, 256), |s| {
            let (report, _) = cfg.run(s, v.clone(), y.clone()).expect("linreg");
            report.sim.total_sec()
        });
        print_norm_row("LR", t[0], t[1]);
    }

    // Collaborative Filtering on netflix-like ratings.
    {
        let users = 13_500;
        let r = dmac_data::netflix_like(users, 256, 31);
        let cfg = CollaborativeFiltering {
            items: r.rows(),
            users: r.cols(),
            sparsity: 0.0117,
        };
        let t = per_system(DMAC_VS_SYSTEMML, &builder_for(WORKERS, 256), |s| {
            let (report, _) = cfg.run(s, r.clone()).expect("cf");
            report.sim.total_sec()
        });
        print_norm_row("CF", t[0], t[1]);
    }

    // SVD (Lanczos) on the same netflix-like matrix, rank 16 (paper: 100).
    {
        let users = 13_500;
        let v = dmac_data::netflix_like(users, 256, 31);
        let cfg = SvdLanczos {
            rows: v.rows(),
            cols: v.cols(),
            sparsity: 0.0117,
            rank: 16,
        };
        let t = per_system(DMAC_VS_SYSTEMML, &builder_for(WORKERS, 256), |s| {
            let (report, _) = cfg.run(s, v.clone()).expect("svd");
            report.sim.total_sec()
        });
        print_norm_row("SVD", t[0], t[1]);
    }
    println!("paper: LR >7x, CF ~1.75x, SVD ~3.3x in SystemML-S/DMac ratio.");
}

fn print_norm_row(app: &str, dmac: f64, sysml: f64) {
    println!(
        "{:<6}{:>12}{:>14}{:>18.2}{:>18.2}",
        app,
        fmt_sec(dmac),
        fmt_sec(sysml),
        1.0,
        sysml / dmac
    );
}
