//! Ablation study of DMac's design choices (DESIGN.md §6): each planner
//! feature is switched off individually and the GNMF workload replanned,
//! reporting estimated + metered communication and stage counts.
//!
//! Not a paper figure — the paper motivates each mechanism qualitatively
//! (§4.2); this harness quantifies the contribution of every switch.

use dmac_apps::Gnmf;
use dmac_bench::{fmt_bytes, header, LOCAL_THREADS, WORKERS};
use dmac_core::planner::PlannerConfig;
use dmac_core::Session;
use dmac_lang::Program;

pub fn run() {
    header("Ablation — planner features on GNMF (4 iterations)");
    let users = 13_500;
    let block = 256;
    let cfg = Gnmf {
        rows: users,
        cols: (users / 27).max(8),
        sparsity: 0.0117,
        rank: 64,
        iterations: 4,
    };
    let v = dmac_data::netflix_like(users, block, 42);

    let variants: Vec<(&str, PlannerConfig)> = vec![
        ("full DMac", PlannerConfig::default()),
        (
            "no Pull-Up Broadcast (H1)",
            PlannerConfig {
                pull_up_broadcast: false,
                ..Default::default()
            },
        ),
        (
            "no Re-assignment (H2)",
            PlannerConfig {
                re_assignment: false,
                ..Default::default()
            },
        ),
        (
            "no multiplication-first order",
            PlannerConfig {
                multiplication_first: false,
                ..Default::default()
            },
        ),
        (
            "no CPMM strategy",
            PlannerConfig {
                allow_cpmm: false,
                ..Default::default()
            },
        ),
        ("no dependencies (SystemML-S)", PlannerConfig::systemml_s()),
    ];

    println!(
        "{:<32}{:>16}{:>16}{:>10}{:>12}",
        "variant", "est. comm", "metered comm", "stages", "comm steps"
    );
    for (name, planner) in variants {
        let mut session = Session::builder()
            .workers(WORKERS)
            .local_threads(LOCAL_THREADS)
            .block_size(block)
            .planner(planner)
            .build();
        session.bind("V", v.clone()).expect("bind");
        let mut p = Program::new();
        cfg.build(&mut p).expect("program");
        let plan = session.plan_only(&p).expect("plan");
        let comm_steps = plan.comm_step_count();
        let report = session.run(&p).expect("run");
        println!(
            "{:<32}{:>16}{:>16}{:>10}{:>12}",
            name,
            fmt_bytes(report.planner_estimate),
            fmt_bytes(report.comm.total_bytes()),
            report.stage_count,
            comm_steps
        );
    }
    println!("\nEach row above disables one mechanism; metered communication should");
    println!("be lowest for full DMac and highest for the dependency-blind planner.");
}
