//! A tiny-length run of every workload through the benchmark binary, untraced
//! and traced: each must pass its correctness gate and print every metric
//! `BENCHMARK.json` names for that mode.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["sim-selsync", "cluster-bsp", "threaded-churn"];

/// Metric names of one `BENCHMARK.json` section.
fn benchmark_names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wallbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--rounds",
            "6",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_passes_its_gate_and_reports_every_metric() {
    let end_to_end = benchmark_names("end_to_end");
    let per_layer = benchmark_names("per_layer");
    assert_eq!(end_to_end.len(), 6);
    assert_eq!(per_layer.len(), 34);
    for workload in WORKLOADS {
        for (trace, names) in [(false, &end_to_end), (true, &per_layer)] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true,") && line.contains("\"failed\": 0,"),
                "{workload} trace={trace}: {line}"
            );
            for name in names {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} trace={trace} lacks {name}: {line}"
                );
            }
            assert_eq!(
                line.matches("\"value\": ").count(),
                names.len(),
                "{workload} trace={trace} reports extra metrics: {line}"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "sim-selsync",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["--workload", "sim-selsync", "--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_wallbench"))
            .args(&args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("run the benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
