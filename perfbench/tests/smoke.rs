//! Smoke-sized runs of every workload: each listed metric is printed
//! with its unit, every check passes, and digests repeat for a seed.

use perfbench::{run, Options, Report, Workload, END_TO_END, PER_LAYER};
use serde_json::Value;

fn smoke(workload: Workload, seed: u64, trace: bool) -> Report {
    run(&Options {
        workload,
        seed,
        seconds: 0.05,
        trace,
        smoke: true,
    })
}

fn names_and_units(report: &Report) -> Vec<(&'static str, &'static str)> {
    report.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn listed(json: &Value, key: &str) -> Vec<(String, Option<String>)> {
    json.as_object().expect("object")[key]
        .as_array()
        .expect("array")
        .iter()
        .map(|entry| {
            let entry = entry.as_object().expect("entry object");
            (
                entry["name"].as_str().expect("name").to_string(),
                entry
                    .get("unit")
                    .and_then(Value::as_str)
                    .map(str::to_string),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics_and_workloads() {
    let json = benchmark_json();
    for (key, printed) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let want: Vec<(String, Option<String>)> = printed
            .iter()
            .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
            .collect();
        assert_eq!(listed(&json, key), want, "{key}");
    }
    let workloads: Vec<String> = listed(&json, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        for (trace, list) in [(false, END_TO_END), (true, PER_LAYER)] {
            let r = smoke(workload, 3, trace);
            assert!(r.correct, "{workload:?} trace={trace}: {:#?}", r.notes);
            assert!(r.attempted > 0);
            assert_eq!(r.failed, 0);
            assert_eq!(names_and_units(&r), list.to_vec());
            if !trace {
                for m in &r.metrics {
                    assert!(m.value > 0.0, "{workload:?}: {} = {}", m.name, m.value);
                }
            }
        }
    }
}

#[test]
fn digests_and_simulated_metrics_repeat_for_a_seed() {
    for workload in Workload::ALL {
        let a = smoke(workload, 5, false);
        let b = smoke(workload, 5, false);
        let other = smoke(workload, 6, false);
        assert_eq!(a.digest, b.digest, "{workload:?}");
        assert_ne!(a.digest, other.digest, "{workload:?}: the seed must matter");
        for name in ["reuse_pct", "remaining_overhead_pct", "sojourn_p99_ms"] {
            let value = |r: &Report| r.metrics.iter().find(|m| m.name == name).unwrap().value;
            assert_eq!(value(&a), value(&b), "{workload:?}: {name}");
        }
    }
}

#[test]
fn result_line_is_one_json_object_with_the_four_keys() {
    let r = smoke(Workload::Fig9Batch, 1, false);
    let line = r.json_line();
    assert!(!line.contains('\n'));
    let v: Value = serde_json::from_str(&line).expect("result line parses");
    let obj = v.as_object().expect("object");
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metrics = obj["metrics"].as_object().expect("metrics object");
    assert_eq!(metrics.len(), END_TO_END.len());
    for &(name, unit) in END_TO_END {
        assert_eq!(
            metrics[name].as_object().unwrap()["unit"].as_str(),
            Some(unit)
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "fig9_batch",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &["--workload", "fig9_batch", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
