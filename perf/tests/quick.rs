//! The `--quick` smoke: the real executable, all four workloads at 1/16
//! scale, untraced and traced. Checks the contract of the result line
//! against `BENCHMARK.json` itself (not against the program's registry):
//! every named metric exactly once, finite, with the listed unit, and the
//! end-to-end ones non-zero. Running the executable also exercises its
//! worker-daemon mode, which `pagerank_socket` needs.

use std::process::Command;

use dmac_cluster::jsonin::Json;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn quick_smoke_prints_every_metric_once_per_workload() {
    let doc = benchmark();
    // All eight invocations at once: nothing here looks at a timing.
    std::thread::scope(|scope| {
        for (workload, _) in names_and_units_of_workloads(&doc) {
            for trace in ["0", "1"] {
                let (doc, workload) = (&doc, workload.clone());
                scope.spawn(move || check_one(doc, &workload, trace));
            }
        }
    });
}

fn check_one(doc: &Json, workload: &str, trace: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.25"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("perf runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    let result = Json::parse(line).expect("result line is JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object");
    };
    let key = if trace == "0" {
        "end_to_end"
    } else {
        "per_layer"
    };
    let expected = names_and_units(doc, key);
    assert_eq!(metrics.len(), expected.len(), "{workload} --trace {trace}");
    for (name, unit) in &expected {
        let printed = line.matches(&format!("\"{name}\":")).count();
        assert_eq!(printed, 1, "{name} on {workload}");
        let m = &metrics[name];
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = m.get("value").and_then(Json::as_f64).expect("a number");
        assert!(v.is_finite(), "{name} on {workload}: {v}");
        if trace == "0" {
            assert!(v > 0.0, "end-to-end {name} is {v} on {workload}");
        }
    }
}

fn names_and_units_of_workloads(doc: &Json) -> Vec<(String, String)> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            let s = |k: &str| w.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("why"))
        })
        .collect()
}

#[test]
fn list_agrees_with_benchmark_json_and_bad_arguments_are_refused() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let list = Command::new(env!("CARGO_BIN_EXE_perf"))
        .arg("--list")
        .current_dir(root)
        .output()
        .expect("perf runs");
    assert!(
        list.status.success(),
        "{}",
        String::from_utf8_lossy(&list.stderr)
    );
    let text = String::from_utf8_lossy(&list.stdout);
    for (name, _) in names_and_units(&benchmark(), "per_layer") {
        assert!(
            text.lines()
                .any(|l| l.split_whitespace().next() == Some(&name)),
            "{name}"
        );
    }
    // Outside the repo root there is no BENCHMARK.json to agree with.
    let elsewhere = Command::new(env!("CARGO_BIN_EXE_perf"))
        .arg("--list")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("perf runs");
    assert!(!elsewhere.status.success());
    let bad = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--workload", "nope"])
        .output()
        .expect("perf runs");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
}
