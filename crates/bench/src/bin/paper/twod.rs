//! Extension study (paper §3.1/§7 future work): one-dimensional
//! partitioning + CPMM/RMM versus two-dimensional block-cyclic + SUMMA,
//! on square and skewed multiplications.
//!
//! The paper's claim to verify: "Two-dimensional partitioning method
//! produces a more balance\[d\] partition while one-dimensional partitioning
//! can reduce the number of aggregation\[s\] during the computation" — 1-D
//! wins on communication for the MapReduce-style pipelines DMac targets,
//! 2-D wins on per-worker balance for skewed shapes.

use dmac_bench::{fmt_bytes, fmt_sec, header};
use dmac_cluster::twod::{dist_imbalance, summa, Dist2d, ProcessGrid};
use dmac_cluster::{Cluster, ClusterConfig, NetworkModel, PartitionScheme};
use dmac_matrix::BlockedMatrix;

/// Best 1-D execution: try all three Figure-2 strategies from ideal
/// placements (inputs pre-loaded in each strategy's required scheme, as
/// the 2-D side is pre-loaded block-cyclically) and keep the cheapest by
/// simulated time. This is what DMac's planner would pick.
fn one_d_multiply(
    cl: &mut Cluster,
    a: &BlockedMatrix,
    b: &BlockedMatrix,
) -> (f64, u64, f64, &'static str) {
    let mut best: Option<(f64, u64, f64, &'static str)> = None;
    for strat in ["RMM1", "RMM2", "CPMM"] {
        cl.reset_meters();
        let (result, imb) = match strat {
            "RMM1" => {
                let db = cl.load(b, PartitionScheme::Col);
                // broadcasting A is part of the strategy's cost: meter it
                let da_row = cl.load(a, PartitionScheme::Row);
                let da = cl.broadcast(&da_row, "A").expect("broadcast");
                let imb = dist_imbalance(&db);
                (cl.rmm1(&da, &db), imb)
            }
            "RMM2" => {
                let da = cl.load(a, PartitionScheme::Row);
                let db_col = cl.load(b, PartitionScheme::Col);
                let db = cl.broadcast(&db_col, "B").expect("broadcast");
                let imb = dist_imbalance(&da);
                (cl.rmm2(&da, &db), imb)
            }
            _ => {
                let da = cl.load(a, PartitionScheme::Col);
                let db = cl.load(b, PartitionScheme::Row);
                let imb = dist_imbalance(&da).max(dist_imbalance(&db));
                (cl.cpmm(&da, &db, PartitionScheme::Row), imb)
            }
        };
        result.expect(strat);
        let t = cl.clock().total_sec();
        let bytes = cl.comm().total_bytes();
        if best.map(|(bt, ..)| t < bt).unwrap_or(true) {
            best = Some((t, bytes, imb, strat));
        }
    }
    best.expect("three strategies tried")
}

fn two_d_multiply(
    cl: &mut Cluster,
    a: &BlockedMatrix,
    b: &BlockedMatrix,
) -> (f64, u64, f64, &'static str) {
    cl.reset_meters();
    let grid = ProcessGrid::squarest(cl.workers());
    let da = Dist2d::from_blocked(a, grid);
    let db = Dist2d::from_blocked(b, grid);
    let imb = da.imbalance().max(db.imbalance());
    let c = summa(cl, &da, &db).expect("summa");
    let _ = c;
    (
        cl.clock().total_sec(),
        cl.comm().total_bytes(),
        imb,
        "SUMMA",
    )
}

pub fn run() {
    header("Extension — 1-D (CPMM) vs 2-D block-cyclic (SUMMA)");
    let workers = 4;
    let block = 128;
    let mut cl = Cluster::new(ClusterConfig {
        workers,
        local_threads: dmac_bench::LOCAL_THREADS,
        network: NetworkModel::default(),
    });

    let cases: Vec<(&str, BlockedMatrix, BlockedMatrix)> = vec![
        (
            "square-dense 1024^2",
            dmac_data::dense_random(1024, 1024, block, 61),
            dmac_data::dense_random(1024, 1024, block, 62),
        ),
        (
            "tall-skinny 8192x256 x 256x8192",
            dmac_data::dense_random(8192, 256, block, 63),
            dmac_data::dense_random(256, 8192, block, 64),
        ),
        (
            "sparse-graph 4096^2 (0.5%)",
            dmac_data::uniform_sparse(4096, 4096, 0.005, block, 65),
            dmac_data::uniform_sparse(4096, 4096, 0.005, block, 66),
        ),
    ];

    println!(
        "{:<34}{:>8}{:>10}{:>12}{:>12}{:>11}",
        "case", "layout", "strategy", "sim time", "comm", "imbalance"
    );
    for (name, a, b) in cases {
        let (t1, c1, i1, s1) = one_d_multiply(&mut cl, &a, &b);
        let (t2, c2, i2, s2) = two_d_multiply(&mut cl, &a, &b);
        println!(
            "{:<34}{:>8}{:>10}{:>12}{:>12}{:>11.2}",
            name,
            "1-D",
            s1,
            fmt_sec(t1),
            fmt_bytes(c1),
            i1
        );
        println!(
            "{:<34}{:>8}{:>10}{:>12}{:>12}{:>11.2}",
            "",
            "2-D",
            s2,
            fmt_sec(t2),
            fmt_bytes(c2),
            i2
        );
    }
    println!("\npaper §7: 1-D reduces shuffling for MapReduce-style pipelines;");
    println!("2-D balances partitions (imbalance ~1.0) at the cost of panel replication.");
}
