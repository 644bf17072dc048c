//! # dmac-bench — the experiment harness
//!
//! One binary, `paper`, with one subcommand per paper table/figure; each
//! prints the same rows/series the paper reports, at a laptop scale
//! documented in EXPERIMENTS.md. Absolute numbers differ from the paper
//! (different decade, different hardware, simulated network); the *shape*
//! — who wins, by what factor, where the crossovers sit — is the
//! reproduction target. Performance of the system itself is measured by
//! the repo benchmark in `perf/`, not here.
//!
//! | `paper <subcommand>` | regenerates |
//! |---|---|
//! | `fig6`  | Fig 6(a) accumulated time + 6(b) accumulated communication, GNMF |
//! | `fig7`  | Fig 7 memory: In-Place vs Buffer on four graphs |
//! | `fig8`  | Fig 8(a) time and 8(b) memory vs block size |
//! | `fig9`  | Fig 9(a) PageRank per-iteration time; 9(b) LR/CF/SVD ratios |
//! | `fig10` | Fig 10(a–d) scalability in data size and workers |
//! | `table4`| Table 4 MM-Sparse / MM-Dense across four systems |
//! | `faults` | recovery overhead of mid-run worker loss + retry cost of flaky links |
//! | `all`   | every subcommand above, in sequence, in one process |

#![forbid(unsafe_code)]

use std::time::Instant;

use dmac_core::baselines::SystemKind;
use dmac_core::engine::ExecReport;
use dmac_core::session::SessionBuilder;
use dmac_core::Session;

/// Default worker count matching the paper's 4-node cluster.
pub const WORKERS: usize = 4;
/// Default local parallelism (the paper's L = 8, dialled to the host).
pub const LOCAL_THREADS: usize = 4;

/// Print a run header.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Format seconds compactly.
pub fn fmt_sec(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1000.0)
    }
}

/// Format bytes compactly.
pub fn fmt_bytes(b: u64) -> String {
    const MB: f64 = 1e6;
    const GB: f64 = 1e9;
    let b = b as f64;
    if b >= GB {
        format!("{:.2} GB", b / GB)
    } else if b >= MB {
        format!("{:.2} MB", b / MB)
    } else {
        format!("{:.1} KB", b / 1e3)
    }
}

/// The two planners every DMac-vs-baseline row compares.
pub const DMAC_VS_SYSTEMML: [SystemKind; 2] = [SystemKind::Dmac, SystemKind::SystemMlS];

/// A session builder at the harness's local parallelism.
pub fn builder_for(workers: usize, block: usize) -> SessionBuilder {
    Session::builder()
        .workers(workers)
        .local_threads(LOCAL_THREADS)
        .block_size(block)
}

/// A session pre-configured for one of the compared systems.
pub fn session_for(system: SystemKind, workers: usize, block: usize) -> Session {
    builder_for(workers, block).system(system).build()
}

/// Run the same measurement once per system, each on a fresh session built
/// from `base`, and return the results in `systems` order.
pub fn per_system<T, const N: usize>(
    systems: [SystemKind; N],
    base: &SessionBuilder,
    mut measure: impl FnMut(&mut Session) -> T,
) -> [T; N] {
    systems.map(|system| measure(&mut base.clone().system(system).build()))
}

/// Accumulated per-iteration series from an [`ExecReport`] — the paper's
/// Figure 6 presentation (x = iteration count, y = accumulated quantity).
pub fn accumulated_series(report: &ExecReport) -> Vec<(f64, u64)> {
    let mut out = Vec::with_capacity(report.per_phase.len());
    let (mut t, mut b) = (0.0, 0u64);
    for phase in &report.per_phase {
        t += phase.total_sec();
        b += phase.total_bytes();
        out.push((t, b));
    }
    out
}

/// Wall-clock measure helper.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_sec(0.0123), "12.3ms");
        assert_eq!(fmt_sec(3.13999), "3.14s");
        assert_eq!(fmt_sec(250.0), "250s");
        assert_eq!(fmt_bytes(1_500), "1.5 KB");
        assert_eq!(fmt_bytes(2_500_000), "2.50 MB");
        assert_eq!(fmt_bytes(3_200_000_000), "3.20 GB");
    }

    #[test]
    fn accumulated_series_accumulates() {
        use dmac_core::engine::PhaseStats;
        let report = ExecReport {
            per_phase: vec![
                PhaseStats {
                    compute_sec: 1.0,
                    comm_sec: 0.5,
                    shuffle_bytes: 10,
                    broadcast_bytes: 5,
                },
                PhaseStats {
                    compute_sec: 2.0,
                    comm_sec: 0.0,
                    shuffle_bytes: 0,
                    broadcast_bytes: 1,
                },
            ],
            ..Default::default()
        };
        let s = accumulated_series(&report);
        assert_eq!(s.len(), 2);
        assert!((s[0].0 - 1.5).abs() < 1e-12);
        assert_eq!(s[0].1, 15);
        assert!((s[1].0 - 3.5).abs() < 1e-12);
        assert_eq!(s[1].1, 16);
    }
}
