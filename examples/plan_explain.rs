//! EXPLAIN: print the dependency-aware execution plan and its stage
//! schedule for the first GNMF iteration — the paper's Figure 3, as text —
//! and contrast it with the dependency-blind SystemML-S plan for the same
//! program.
//!
//! ```sh
//! cargo run --release --example plan_explain
//! ```

use dmac::prelude::*;
use dmac_core::baselines::SystemKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = Gnmf {
        rows: 480_189,
        cols: 17_770,
        sparsity: 0.0117,
        rank: 200,
        iterations: 1,
    };

    for system in [SystemKind::Dmac, SystemKind::SystemMlS] {
        // Planning needs no data — only the declared shapes/sparsities —
        // so this explains the plan for the FULL Netflix dimensions.
        let session = Session::builder()
            .system(system)
            .workers(4)
            .block_size(100_000)
            .build();
        let mut prog = Program::new();
        cfg.build(&mut prog)?;
        println!("================ {} plan ================", system.name());
        println!("{}", session.explain(&prog)?);
        // Also emit Graphviz (render with `dot -Tpng <file> -o plan.png`).
        let plan = session.plan_only(&prog)?;
        let path = format!(
            "target/gnmf_plan_{}.dot",
            system.name().to_lowercase().replace('-', "_")
        );
        std::fs::write(&path, plan.to_dot(&prog))?;
        println!("wrote {path}");
    }
    println!("note: DMac's plan reads transposes as views (`Wt(c)`: no step) and");
    println!("extracts for free, and needs far fewer *comm* steps; SystemML-S");
    println!("repartitions every operator input.");
    Ok(())
}
