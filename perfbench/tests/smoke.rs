//! Tiny-scale smoke tests of the benchmark binary: every workload runs,
//! prints every metric `BENCHMARK.json` names with its unit, and flags an
//! injected wrong answer. Each run is its own process, as the NVM model
//! and its stats are process-wide.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["lookup-insert-str", "scan-int", "service-tcp"];

/// Runs one tiny workload and returns its last stdout line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload])
        .args("--seed 7 --seconds 1 --tiny".split(' '))
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// `(name, unit)` of every metric in one section (`end_to_end` or
/// `per_layer`) of `BENCHMARK.json`.
fn metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// The run succeeded and printed exactly `metrics`, each with its unit.
fn assert_result(line: &str, metrics: &[(String, String)]) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0,"), "{line}");
    for (name, unit) in metrics {
        let at = line
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        let rest = &line[at..];
        let end = rest.find('}').expect("metric object ends");
        assert!(
            rest[..end].ends_with(&format!("\"unit\": \"{unit}\"")),
            "{name}: want unit {unit} in {line}"
        );
    }
    assert_eq!(line.matches("\"value\": ").count(), metrics.len(), "{line}");
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let want = metrics("end_to_end");
    assert!(want.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in WORKLOADS {
        assert_result(&run(w, false, &[]), &want);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    let want = metrics("per_layer");
    for w in WORKLOADS {
        assert_result(&run(w, true, &[]), &want);
    }
}

#[test]
fn an_injected_wrong_answer_is_flagged() {
    for w in WORKLOADS {
        let line = run(w, false, &["--inject-wrong-answer"]);
        assert!(line.starts_with("{\"correct\": false,"), "{w}: {line}");
        assert!(line.contains("\"failed\": 1,"), "{w}: {line}");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload scan-int --seed 1 --seconds 1 --trace 2",
        "--workload scan-int --seed x --seconds 1 --trace 0",
        "--workload scan-int --seed 1 --seconds 0 --trace 0",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split(' '))
            .output()
            .expect("run perfbench");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
