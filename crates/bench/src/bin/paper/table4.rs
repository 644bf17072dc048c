//! Table 4: one matrix multiplication across four systems, sparse and
//! dense inputs.
//!
//! Paper setup: `V1` from Netflix (480 189 × 17 770, sparsity 0.01),
//! `H` dense 480 189 × 200; `V2` = dense `V1`. 8 nodes × 8 processes.
//! The operation is `V × H` (dimension-compatible: `Vᵀ` rows match; the
//! paper multiplies `V1` and `Hᵀ`-shaped operands — we use `Vᵀ? no:`
//! `V (users × movies)` times a dense `movies × k` factor, the same
//! computational pattern at scale).
//!
//! Paper result (seconds):
//!
//! | | ScaLAPACK | SciDB | SystemML-S | DMac |
//! |---|---|---|---|---|
//! | MM-Sparse | 107 | 11m35s | 18.5 | 17 |
//! | MM-Dense  | 116 | 12m15s | 133  | 121 |
//!
//! Shape to reproduce: on sparse input the sparsity-aware systems
//! (SystemML-S, DMac) crush the dense-only ones; on dense input DMac is
//! comparable to ScaLAPACK; SciDB is the slowest everywhere; DMac edges
//! out SystemML-S slightly (same local engine, same total comm for one
//! operator).

use dmac_bench::{fmt_sec, header, session_for};
use dmac_core::baselines::scalapack::{self, ScalapackConfig};
use dmac_core::baselines::scidb::{self, ScidbConfig};
use dmac_core::baselines::SystemKind;
use dmac_lang::Program;
use dmac_matrix::BlockedMatrix;

fn run_spark_like(system: SystemKind, v: &BlockedMatrix, h: &BlockedMatrix, sparsity: f64) -> f64 {
    let block = v.block_size();
    let mut s = session_for(system, 8, block);
    s.bind("V", v.clone()).expect("bind V");
    s.bind("H", h.clone()).expect("bind H");
    let mut p = Program::new();
    let ev = p.load("V", v.rows(), v.cols(), sparsity);
    let eh = p.load("H", h.rows(), h.cols(), 1.0);
    let out = p.matmul(ev, eh).expect("shapes");
    p.output(out);
    let report = s.run(&p).expect("run");
    report.sim.total_sec()
}

pub fn run() {
    header("Table 4 — single matrix multiplication across systems");
    // Netflix scaled ÷ ~36: V1 is 13 500 x 500 at sparsity ~0.0117;
    // H dense 500 x 64; V2 dense with V1's dimensions.
    let users = 13_500;
    let block = 128;
    let k = 64;
    let v1 = dmac_data::netflix_like(users, block, 51);
    let movies = v1.cols();
    let h = dmac_data::dense_random(movies, k, block, 52);
    let v2 = dmac_data::dense_random(users, movies, block, 53);
    println!(
        "V: {}x{} (sparse {:.4} / dense), H: {}x{} dense; 8 workers x 8 processes",
        users,
        movies,
        v1.nnz() as f64 / (users as f64 * movies as f64),
        movies,
        k
    );

    let sca_cfg = ScalapackConfig {
        processes: 64,
        measure_threads: dmac_bench::LOCAL_THREADS,
        ..Default::default()
    };
    let sci_cfg = ScidbConfig {
        scalapack: sca_cfg,
        ..Default::default()
    };

    println!(
        "\n{:<12}{:>12}{:>12}{:>14}{:>10}",
        "", "ScaLAPACK", "SciDB", "SystemML-S", "DMac"
    );
    for (label, v, sparsity) in [("MM-Sparse", &v1, 0.0117), ("MM-Dense", &v2, 1.0)] {
        let sca = scalapack::multiply(v, &h, &sca_cfg)
            .expect("scalapack")
            .sim_time_sec;
        let sci = scidb::multiply(v, &h, &sci_cfg)
            .expect("scidb")
            .sim_time_sec;
        let sysml = run_spark_like(SystemKind::SystemMlS, v, &h, sparsity);
        let dmac = run_spark_like(SystemKind::Dmac, v, &h, sparsity);
        println!(
            "{:<12}{:>12}{:>12}{:>14}{:>10}",
            label,
            fmt_sec(sca),
            fmt_sec(sci),
            fmt_sec(sysml),
            fmt_sec(dmac)
        );
    }
    println!("\npaper: sparse — DMac/SystemML-S ~6x faster than ScaLAPACK, SciDB worst;");
    println!("       dense  — DMac comparable to ScaLAPACK; DMac slightly ahead of SystemML-S.");
}
