//! `perf compare DIR_A DIR_B`: one row per (workload, end-to-end metric)
//! with both sides' median, quartiles and sample count, the bound from
//! the registry, and a verdict.
//!
//! A side's values for a metric are one per results document when the
//! directory holds several sets of the workload; with a single set they
//! are the samples inside it (run latencies, set-up times), and failing
//! those the one value.
//!
//! Verdict, reading `B` against `A`: `unresolved` when either side's
//! spread (interquartile distance ÷ median) exceeds the bound — the
//! difference cannot be told from run-to-run noise; otherwise `worse` /
//! `better` when the medians differ by more than the bound in that
//! direction, else `same`.

use std::collections::BTreeMap;
use std::path::Path;

use dmac_cluster::jsonin::Json;

use crate::metrics::{Better, Metric, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return if mb == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    // Positive = B is worse than A, as a share of A.
    let worse_by = match m.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Untraced results documents of a directory, by workload.
fn load(dir: &Path) -> Result<BTreeMap<String, Vec<Json>>, String> {
    let mut out: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(doc) = Json::parse(&text) else {
            continue;
        };
        let (Some(w), Some(false)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("trace").and_then(Json::as_bool),
        ) else {
            continue;
        };
        out.entry(w.to_string()).or_default().push(doc);
    }
    Ok(out)
}

/// The values standing for one side of one (workload, metric) row.
fn side_values(docs: &[Json], metric: &str) -> Vec<f64> {
    let of = |d: &Json| d.get("metrics").and_then(|m| m.get(metric)).cloned();
    if docs.len() > 1 {
        return docs
            .iter()
            .filter_map(|d| of(d)?.get("value")?.as_f64())
            .collect();
    }
    let Some(m) = docs.first().and_then(of) else {
        return Vec::new();
    };
    match m.get("samples").and_then(Json::as_arr) {
        Some(samples) if !samples.is_empty() => samples.iter().filter_map(Json::as_f64).collect(),
        _ => m.get("value").and_then(Json::as_f64).into_iter().collect(),
    }
}

fn cell(xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs);
    format!(
        "{:>12.5} [{:>12.5} {:>12.5}] n={:<4}",
        median(xs),
        q1,
        q3,
        xs.len()
    )
}

/// Print the table; `Ok(false)` when any row is `worse`.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (da, db) = (load(a)?, load(b)?);
    if da.is_empty() || db.is_empty() {
        return Err("no untraced results documents found on one side".into());
    }
    println!(
        "{:<16} {:<20} {:<50} {:<50} {:>6}  verdict (B against A)",
        "workload", "metric", "A: median [q1 q3] n", "B: median [q1 q3] n", "bound"
    );
    let mut any_worse = false;
    for w in WORKLOADS {
        let (Some(docs_a), Some(docs_b)) = (da.get(w.name), db.get(w.name)) else {
            continue;
        };
        let noisy = docs_a
            .iter()
            .chain(docs_b)
            .any(|d| d.get("noisy").and_then(Json::as_bool) == Some(true));
        for m in END_TO_END {
            let (xa, xb) = (side_values(docs_a, m.name), side_values(docs_b, m.name));
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            let v = verdict(m, &xa, &xb);
            any_worse |= v == Verdict::Worse;
            println!(
                "{:<16} {:<20} {:<50} {:<50} {:>6}  {}{}",
                w.name,
                m.name,
                cell(&xa),
                cell(&xb),
                m.bound.unwrap_or(0.0),
                v.as_str(),
                if noisy { "  (noisy host)" } else { "" }
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(name: &str) -> Option<&'static Metric> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let wall = find("run_p50_ms").unwrap(); // lower is better, 25 %
        let rate = find("runs_per_s").unwrap(); // higher is better, 25 %
        let tight = |c: f64| vec![c * 0.99, c, c * 1.01, c, c];
        assert_eq!(verdict(wall, &tight(100.0), &tight(110.0)), Verdict::Same);
        assert_eq!(verdict(wall, &tight(100.0), &tight(130.0)), Verdict::Worse);
        assert_eq!(verdict(wall, &tight(100.0), &tight(70.0)), Verdict::Better);
        assert_eq!(verdict(rate, &tight(100.0), &tight(70.0)), Verdict::Worse);
        assert_eq!(verdict(rate, &tight(100.0), &tight(130.0)), Verdict::Better);
        // Run-to-run spread beyond the bound: the difference is not resolved.
        let wide = vec![60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(wall, &wide, &tight(150.0)), Verdict::Unresolved);
    }

    #[test]
    fn a_single_set_falls_back_to_its_samples() {
        let doc = |v: f64, samples: &str| {
            Json::parse(&format!(
                r#"{{"workload":"gnmf_sim","trace":false,"metrics":{{"run_p50_ms":{{"value":{v},"unit":"ms"{samples}}},"wire_bytes":{{"value":7,"unit":"B/run"}}}}}}"#
            ))
            .unwrap()
        };
        let one = [doc(2.0, r#","samples":[1,2,3]"#)];
        assert_eq!(side_values(&one, "run_p50_ms"), vec![1.0, 2.0, 3.0]);
        assert_eq!(side_values(&one, "wire_bytes"), vec![7.0]);
        assert!(side_values(&one, "absent").is_empty());
        let two = [doc(2.0, r#","samples":[1,2,3]"#), doc(4.0, "")];
        assert_eq!(side_values(&two, "run_p50_ms"), vec![2.0, 4.0]);
    }
}
