//! The metric registry: every name the benchmark prints, with its unit,
//! direction and layer. `BENCHMARK.json` at the repo root must list
//! exactly these (`perf --list` checks it), so a metric cannot be added,
//! renamed or dropped in one place only.

use dmac_cluster::jsonin::Json;

use crate::stats::valid_name;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The crate or module whose work the metric measures (`end_to_end`
    /// for what a user of the system sees).
    pub layer: &'static str,
    /// Regression bound as a share of the parent's median; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer: "end_to_end",
        bound: Some(bound),
    }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; printed with `--trace 0`, each on
/// every workload (one *run* is one user call: a whole `Gnmf::run` /
/// `PageRank::run` / checkpointed driver, or one `dmac-serve` request).
///
/// The bounds of the timings and rates are wide because the sizing host
/// is: on 2 shared cores one invocation's median moves by 8–11 % from
/// one invocation to the next (interquartile distance over ten seeds),
/// and a bound has to sit well above that spread to mean anything. The
/// byte counts repeat to 0.01 % and keep a 1 % bound.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("run_p50_ms", "ms", Lower, 0.25),
    e2e("run_tail_ms", "ms", Lower, 0.25),
    e2e("runs_per_s", "1/s", Higher, 0.25),
    e2e("gflops", "GFLOP/s", Higher, 0.25),
    e2e("wire_bytes", "B/run", Lower, 0.01),
    e2e("peak_resident_bytes", "B", Lower, 0.01),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Single layers; printed with `--trace 1`. A metric whose layer a
/// workload bypasses reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    layer("lang", "lang.parse_us", "us", Lower),
    layer("lang", "lang.fingerprint_us", "us", Lower),
    layer("analyze", "analyze.lint_us", "us", Lower),
    layer("analyze", "analyze.verify_ms", "ms", Lower),
    layer("stats", "stats.measure_ms", "ms", Lower),
    layer("stats", "stats.nnz_ratio", "ratio", Higher),
    layer("core.planner", "core.planner.plan_ms", "ms", Lower),
    layer("core.planner", "core.planner.steps", "count", Lower),
    layer("core.planner", "core.planner.stages", "count", Lower),
    layer("core.planner", "core.planner.predicted_bytes", "B", Lower),
    layer("core.planner", "core.planner.cost_ratio", "ratio", Lower),
    layer(
        "core.planner",
        "core.planner.certified_peak_bytes",
        "B",
        Lower,
    ),
    layer("core.engine", "core.engine.bind_ms", "ms", Lower),
    layer("core.engine", "core.engine.exec_s", "s", Lower),
    layer("core.engine", "core.engine.self_s", "s", Lower),
    layer("core.engine", "core.engine.fetch_ms", "ms", Lower),
    layer("cluster", "cluster.rmm1_s", "s", Lower),
    layer("cluster", "cluster.rmm2_s", "s", Lower),
    layer("cluster", "cluster.cpmm_s", "s", Lower),
    layer("cluster", "cluster.cellwise_s", "s", Lower),
    layer("cluster", "cluster.move_s", "s", Lower),
    layer("cluster", "cluster.ops", "count", Lower),
    layer("cluster", "cluster.rmm1_us_per_block", "us", Lower),
    layer("cluster", "cluster.shuffle_bytes", "B", Lower),
    layer("cluster", "cluster.broadcast_bytes", "B", Lower),
    layer(
        "cluster.transport",
        "cluster.transport.overhead_s",
        "s",
        Lower,
    ),
    layer(
        "cluster.transport",
        "cluster.transport.frames",
        "count",
        Lower,
    ),
    layer(
        "cluster.transport",
        "cluster.transport.frame_bytes",
        "B",
        Lower,
    ),
    layer(
        "cluster.transport",
        "cluster.transport.peer_bytes",
        "B",
        Lower,
    ),
    layer(
        "cluster.transport",
        "cluster.transport.relay_bytes",
        "B",
        Lower,
    ),
    layer(
        "cluster.transport",
        "cluster.transport.install_bytes",
        "B",
        Lower,
    ),
    layer(
        "cluster.transport",
        "cluster.transport.payload_bytes",
        "B",
        Lower,
    ),
    layer(
        "cluster.transport",
        "cluster.transport.rounds",
        "count",
        Lower,
    ),
    layer(
        "cluster.transport",
        "cluster.transport.round_us",
        "us",
        Lower,
    ),
    layer(
        "cluster.transport",
        "cluster.transport.wire_mb_per_s",
        "MB/s",
        Higher,
    ),
    layer(
        "cluster.transport",
        "cluster.transport.launch_ms",
        "ms",
        Lower,
    ),
    layer(
        "cluster.transport",
        "cluster.transport.encode_mb_per_s",
        "MB/s",
        Higher,
    ),
    layer(
        "cluster.transport",
        "cluster.transport.decode_mb_per_s",
        "MB/s",
        Higher,
    ),
    layer(
        "cluster.transport",
        "cluster.transport.seal_mb_per_s",
        "MB/s",
        Higher,
    ),
    layer("matrix", "matrix.dense_mm_gflops", "GFLOP/s", Higher),
    layer("matrix", "matrix.csc_dense_gflops", "GFLOP/s", Higher),
    layer("matrix", "matrix.dense_csc_gflops", "GFLOP/s", Higher),
    layer("matrix", "matrix.fused_mcells_per_s", "Mcell/s", Higher),
    layer("matrix", "matrix.exec_mm_gflops", "GFLOP/s", Higher),
    layer("matrix", "matrix.mm_flops_per_byte", "flop/B", Higher),
    layer("matrix", "matrix.pool_reused", "count", Higher),
    layer("matrix", "matrix.pool_allocated", "count", Lower),
    layer("core.store", "core.store.overhead_s", "s", Lower),
    layer("core.store", "core.store.checkpoint_s", "s", Lower),
    layer("core.store", "core.store.recover_ms", "ms", Lower),
    layer("core.store", "core.store.spills", "count", Lower),
    layer("core.store", "core.store.spills_spread", "count", Lower),
    layer("core.store", "core.store.spill_bytes", "B", Lower),
    layer("core.store", "core.store.loads", "count", Lower),
    layer("core.store", "core.store.load_bytes", "B", Lower),
    layer("core.store", "core.store.snapshots", "count", Lower),
    layer("core.store", "core.store.dropped", "count", Lower),
    layer("core.store", "core.store.load_failures", "count", Lower),
    layer("core.store", "core.store.peak_footprint_bytes", "B", Lower),
    layer("core.store", "core.store.spill_mb_per_s", "MB/s", Higher),
    layer("core.store", "core.store.load_mb_per_s", "MB/s", Higher),
    layer("serve", "serve.submit_hit_p50_ms", "ms", Lower),
    layer("serve", "serve.submit_miss_p50_ms", "ms", Lower),
    layer("serve", "serve.fetch_p50_ms", "ms", Lower),
    layer("serve", "serve.lint_p50_ms", "ms", Lower),
    layer("serve", "serve.exec_share", "ratio", Higher),
    layer("serve", "serve.cache.hit_rate", "ratio", Higher),
    layer("serve", "serve.cache.evictions", "count", Lower),
    layer("serve", "serve.rejected_busy", "count", Lower),
    layer("serve", "serve.start_ms", "ms", Lower),
    layer("serve", "serve.connect_ms", "ms", Lower),
    layer("serve", "serve.protocol.encode_us", "us", Lower),
    layer("serve", "serve.protocol.decode_us", "us", Lower),
    layer("serve", "serve.cache.key_us", "us", Lower),
    layer("serve", "serve.cache.lookup_us", "us", Lower),
    layer("data", "data.gen_s", "s", Lower),
    layer("apps", "apps.build_ms", "ms", Lower),
    layer("host", "host.calib_ms", "ms", Lower),
    layer("host", "host.calib_spread", "ratio", Lower),
    layer("harness", "trace_overhead_share", "ratio", Lower),
    layer("harness", "run_tail_percentile", "%", Higher),
    layer("harness", "failed_share", "ratio", Lower),
];

/// One workload: its name and the one-line reason it is in the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "gnmf_sim",
        why: "compute-bound: in-process GNMF where the multiply kernels are most of the wall; a matrix kernel change must show here, a transport, serve or store change must not",
    },
    WorkloadInfo {
        name: "pagerank_socket",
        why: "transport-bound: PageRank on 4 real dmac-workerd processes; tile codec, frames and round trips dominate, arithmetic is tiny and runs the dense-row x sparse kernel",
    },
    WorkloadInfo {
        name: "serve_mix",
        why: "front-end-bound: 2 closed-loop dmac-serve clients, plan-cache hits beside misses, fetch beside submit and lint; parse, plan, cache and protocol dominate, kernels idle",
    },
    WorkloadInfo {
        name: "gnmf_spill",
        why: "store-bound: checkpointed GNMF under half its working set with recovery; spill writes, verified reloads and snapshots beside the same kernels at a quarter of the size",
    },
];

/// One line per metric: name, unit, direction, layer, bound.
pub fn listing() -> String {
    let mut s = String::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let bound = m
            .bound
            .map(|b| format!("{b}"))
            .unwrap_or_else(|| "-".into());
        s.push_str(&format!(
            "{:<40} {:<8} {:<6} {:<18} {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer,
            bound
        ));
    }
    s
}

/// Check the registry against itself: valid, unique names and units.
pub fn self_check() -> Vec<String> {
    let mut errs = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for name in END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|m| m.name)
        .chain(WORKLOADS.iter().map(|w| w.name))
    {
        if !valid_name(name) {
            errs.push(format!("invalid name {name:?}"));
        }
        if !seen.insert(name) {
            errs.push(format!("name {name:?} used twice"));
        }
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let unit_ok = !m.unit.is_empty()
            && m.unit.len() <= 16
            && m.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'));
        if !unit_ok {
            errs.push(format!("metric {}: invalid unit {:?}", m.name, m.unit));
        }
    }
    for w in WORKLOADS {
        if w.why.len() > 200 || w.why.contains('\n') {
            errs.push(format!(
                "workload {}: reason must be one line of at most 200 characters",
                w.name
            ));
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower)
    {
        errs.push("end_to_end must contain setup_s (s, lower)".into());
    }
    errs
}

/// Differences between the registry and a `BENCHMARK.json` document;
/// empty when they agree on every workload, metric, unit, direction and
/// bound.
pub fn disagreements(benchmark_json: &str) -> Vec<String> {
    let doc = match Json::parse(benchmark_json) {
        Ok(d) => d,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let mut errs = Vec::new();
    let arr = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap_or(&[]);
    let field = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap_or("").to_string();

    let theirs: Vec<(String, String)> = arr("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    if theirs != ours {
        errs.push("workloads (names, reasons or order) differ".into());
    }

    for (key, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = arr(key);
        if listed.len() != metrics.len() {
            errs.push(format!(
                "{key}: {} metrics in BENCHMARK.json, {} in the registry",
                listed.len(),
                metrics.len()
            ));
        }
        for m in metrics {
            let Some(j) = listed.iter().find(|j| field(j, "name") == m.name) else {
                errs.push(format!("{key}: {} missing from BENCHMARK.json", m.name));
                continue;
            };
            if field(j, "unit") != m.unit {
                errs.push(format!(
                    "{}: unit {:?} vs {:?}",
                    m.name,
                    field(j, "unit"),
                    m.unit
                ));
            }
            if field(j, "better") != m.better.as_str() {
                errs.push(format!("{}: direction differs", m.name));
            }
            if j.get("bound").and_then(Json::as_f64) != m.bound {
                errs.push(format!("{}: bound differs", m.name));
            }
        }
        for j in listed {
            if !metrics.iter().any(|m| m.name == field(j, "name")) {
                errs.push(format!(
                    "{key}: {} is not in the registry",
                    field(j, "name")
                ));
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_well_formed() {
        assert_eq!(self_check(), Vec::<String>::new());
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        // Every per-layer name starts with its layer (harness metrics aside).
        for m in PER_LAYER.iter().filter(|m| m.layer != "harness") {
            assert!(
                m.name.starts_with(m.layer),
                "{} not under {}",
                m.name,
                m.layer
            );
        }
    }

    #[test]
    fn registry_agrees_with_the_committed_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(disagreements(&text), Vec::<String>::new());
    }

    #[test]
    fn disagreements_are_reported() {
        let errs = disagreements(
            r#"{"workloads":[],"end_to_end":[{"name":"setup_s","unit":"ms","better":"lower","bound":0.25}],"per_layer":[]}"#,
        );
        assert!(errs.iter().any(|e| e.contains("workloads")));
        assert!(errs.iter().any(|e| e.contains("setup_s: unit")));
        assert!(errs.iter().any(|e| e.contains("run_p50_ms missing")));
        assert!(!disagreements("not json").is_empty());
    }
}
