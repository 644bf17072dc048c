//! Conjugate-gradient linear regression (paper Code 4): fit a ridge model
//! on synthetic sparse data and report the residual after each CG step.
//!
//! ```sh
//! cargo run --release --example linear_regression
//! ```

use dmac::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (rows, features) = (40_000, 1_000);
    let sparsity = 0.01;
    let block = 256;
    let cfg = LinearRegression {
        rows,
        features,
        sparsity,
        lambda: 1e-6,
        iterations: 8,
    };
    let v = dmac::data::uniform_sparse(rows, features, sparsity, block, 23);
    let y = dmac::data::dense_random(rows, 1, block, 24);
    println!(
        "ridge regression: {} samples x {} features ({} non-zeros), {} CG steps",
        rows,
        features,
        v.nnz(),
        cfg.iterations
    );

    let mut session = Session::builder()
        .workers(4)
        .local_threads(2)
        .block_size(block)
        .build();
    let (report, handles) = cfg.run(&mut session, v.clone(), y.clone())?;
    let w = session.value(handles.w)?;
    let residual = LinearRegression::residual(&v, &y, &w)?;
    let baseline = y.norm2();
    println!(
        "‖Vw − y‖ = {residual:.4} (from {baseline:.4} at w = 0); \
         simulated time {:.3}s, {}",
        report.sim.total_sec(),
        report.comm
    );
    println!(
        "V was partitioned once and reused across all {} iterations — \
         {} communication steps total",
        cfg.iterations,
        report
            .trace
            .steps
            .iter()
            .flat_map(|s| &s.spans)
            .filter(|s| s.comm.is_some())
            .count()
    );
    Ok(())
}
