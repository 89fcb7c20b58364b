//! End-to-end smoke of the benchmark binary on the tiny corpus: every
//! workload, both trace modes, and the oracle check's teeth.

use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["hot_trec", "cold_segment", "mixed_open", "net_scatter"];

fn run(workload: &str, trace: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_x100-benchmark"))
        .args(["--workload", workload, "--scale", "tiny"])
        .args(["--seed", "7", "--seconds", "0.2", "--trace", trace])
        .args(extra)
        .output()
        .expect("spawn the benchmark binary")
}

/// `(name, unit)` of the metrics `BENCHMARK.json` declares under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let from = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[from..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |object: &str, key: &str| {
        let at = object.find(&format!("\"{key}\"")).expect("key present");
        object[at..]
            .split('"')
            .nth(3)
            .expect("string value")
            .to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|object| (field(object, "name"), field(object, "unit")))
        .collect()
}

/// Asserts the run printed each declared metric exactly once — as a
/// `name value unit` line with a finite value, and in the closing JSON.
fn assert_reports(output: &Output, section: &str, context: &str) {
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{context}: {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let summary = stdout.lines().last().expect("a last line");
    assert!(
        summary.starts_with("{\"correct\": true, \"attempted\": ")
            && summary.contains("\"failed\": 0, \"metrics\": {"),
        "{context}: {summary}"
    );
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in &metrics {
        let lines: Vec<&str> = stdout
            .lines()
            .filter(|l| l.split(' ').next() == Some(name))
            .collect();
        assert_eq!(lines.len(), 1, "{context}: {name} printed {lines:?}");
        let fields: Vec<&str> = lines[0].split(' ').collect();
        assert_eq!(fields.len(), 3, "{context}: {}", lines[0]);
        let value: f64 = fields[1].parse().expect("numeric value");
        assert!(value.is_finite(), "{context}: {}", lines[0]);
        assert_eq!(fields[2], unit, "{context}: {}", lines[0]);
        let in_json = format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            fields[1]
        );
        assert_eq!(summary.matches(&in_json).count(), 1, "{context}: {in_json}");
    }
    assert_eq!(
        summary.matches("\"unit\"").count(),
        metrics.len(),
        "{context}: metrics beyond the declared ones in {summary}"
    );
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let output = run(workload, "0", &[]);
        assert_reports(&output, "end_to_end", workload);
        // End-to-end metrics are never 0 (the contract's rule).
        let stdout = String::from_utf8_lossy(&output.stdout);
        for (name, _) in declared("end_to_end") {
            assert!(
                !stdout.lines().any(|l| l.starts_with(&format!("{name} 0 "))),
                "{workload}: {name} is 0"
            );
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    for workload in WORKLOADS {
        let output = run(workload, "1", &[]);
        assert_reports(&output, "per_layer", workload);
        let stdout = String::from_utf8_lossy(&output.stdout);
        // The layer separation the workloads exist for, as far as the
        // tiny corpus shows it: only net_scatter crosses TCP.
        let over_tcp = !stdout.contains("\nnet.coordinator_us_p50 0 us\n");
        assert_eq!(over_tcp, workload == "net_scatter", "{workload}");
        assert!(stdout.contains("\ntrace.file "), "{workload}");
    }
}

#[test]
fn a_wrong_oracle_fails_the_run() {
    let output = run("hot_trec", "0", &["--corrupt-oracle"]);
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let summary = stdout.lines().last().expect("a last line");
    assert!(summary.starts_with("{\"correct\": false, "), "{summary}");
    assert!(!summary.contains("\"failed\": 0,"), "{summary}");
}

#[test]
fn bad_arguments_print_no_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &[]] {
        let output = Command::new(env!("CARGO_BIN_EXE_x100-benchmark"))
            .args(args)
            .output()
            .expect("spawn the benchmark binary");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
