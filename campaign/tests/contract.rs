//! The output contract, checked on the shrunken configuration
//! (`--tiny`: every workload's smallest sibling, one repetition):
//! `BENCHMARK.json` is what the program declares, every declared metric
//! is reported under its name, and the last line of stdout is the one
//! JSON object the driver reads.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Value;
use std::process::Command;

fn campaign(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        // Span files and WAL directories go under the test's own
        // scratch directory inside the build directory.
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the campaign binary");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("UTF-8 output"),
    )
}

fn last_line_json(stdout: &str) -> Value {
    json::parse(stdout.lines().last().expect("some output")).expect("last line is JSON")
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json is JSON")
}

fn names(declared: &Value, list: &str) -> Vec<String> {
    declared
        .get(list)
        .and_then(Value::as_array)
        .expect("a list of declarations")
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Value::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

fn keys(object: &Value) -> Vec<String> {
    object
        .as_object()
        .expect("an object")
        .iter()
        .map(|(key, _)| key.clone())
        .collect()
}

#[test]
fn benchmark_json_is_what_the_program_declares() {
    let (ok, generated) = campaign(&["--benchmark-json"]);
    assert!(ok);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    assert_eq!(
        generated,
        std::fs::read_to_string(path).unwrap(),
        "regenerate with: campaign --benchmark-json > BENCHMARK.json"
    );
}

#[test]
fn each_workload_ends_with_the_drivers_json_object() {
    let declared = benchmark_json();
    for workload in names(&declared, "workloads") {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout) = campaign(&[
                "--workload",
                &workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--tiny",
            ]);
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            let result = last_line_json(&stdout);
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            let metrics = result.get("metrics").unwrap();
            assert_eq!(keys(metrics), names(&declared, list), "{workload} {list}");
            for (name, metric) in metrics.as_object().unwrap() {
                assert_eq!(keys(metric), ["value", "unit"], "{workload} {name}");
                let value = metric.get("value").and_then(Value::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload} {name}");
                if list == "end_to_end" {
                    assert!(value.unwrap() > 0.0, "{workload} {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn the_all_workloads_run_ends_with_every_metric_by_name() {
    let declared = benchmark_json();
    let (ok, stdout) = campaign(&["--tiny", "--trace", "1", "--seconds", "1"]);
    assert!(ok, "{stdout}");
    let document = last_line_json(&stdout);
    let workloads = document.get("workloads").expect("a workloads member");
    assert_eq!(keys(workloads), names(&declared, "workloads"));
    for (workload, sections) in workloads.as_object().unwrap() {
        for list in ["end_to_end", "per_layer"] {
            let section = sections.get(list).expect("both sections under --trace 1");
            assert_eq!(section.get("ops_failed").and_then(Value::as_f64), Some(0.0));
            let reported = section.get("metrics").unwrap();
            for name in names(&declared, list) {
                let metric = reported
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload} does not report {name}"));
                for field in ["unit", "value", "median", "min", "max", "samples"] {
                    assert!(
                        metric.get(field).is_some(),
                        "{workload} {name} lacks {field}"
                    );
                }
            }
        }
        // The sequential baseline rides along with the end-to-end set.
        let end_to_end = sections.get("end_to_end").unwrap().get("metrics").unwrap();
        for extra in ["seq_solve_s", "parallel_efficiency"] {
            assert!(end_to_end.get(extra).is_some(), "{workload} lacks {extra}");
        }
    }
}

#[test]
fn a_bad_command_line_is_refused_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let (ok, stdout) = campaign(args);
        assert!(
            !ok && stdout.is_empty(),
            "{args:?} must fail silently on stdout"
        );
    }
}
