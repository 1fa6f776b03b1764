//! `--smoke` runs of the real binary: one pass over the smallest sizes,
//! whose output must carry every workload and metric `BENCHMARK.json`
//! names, under exactly the contract's result-line shape.

use std::process::Command;
use tcsim_perf::compare::parse_result_line;
use tcsim_perf::report::{MetricSpec, Spec};
use tcsim_serve::json;

fn smoke(workload: &str, traced: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tcsim-perf"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0",
        ])
        .args(["--trace", if traced { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{workload} smoke failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn check(stdout: &str, expected: &[MetricSpec], workload: &str) {
    let last = stdout.lines().last().expect("a result line");
    let v = json::parse(last).expect("the last line is one JSON object");
    let json::JsonValue::Object { order, .. } = &v else {
        panic!("result line is not an object");
    };
    assert_eq!(order, &["correct", "attempted", "failed", "metrics"]);
    assert!(v.u64_field("attempted").unwrap() >= 1);
    assert_eq!(v.u64_field("failed"), Some(0));

    let result = parse_result_line(last).unwrap();
    assert!(result.correct, "{workload}: outputs check");
    let metrics = result.metrics;
    let mut want: Vec<&str> = expected.iter().map(|m| m.name.as_str()).collect();
    want.sort_unstable();
    let got: Vec<&str> = metrics.keys().map(String::as_str).collect();
    assert_eq!(got, want, "{workload}: exactly the contract's metrics");
    for m in expected {
        let unit = v
            .get("metrics")
            .unwrap()
            .get(&m.name)
            .unwrap()
            .str_field("unit");
        assert_eq!(unit, Some(m.unit.as_str()), "{}", m.name);
        // Every metric is also printed by name with its unit.
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&m.name) && l.ends_with(&m.unit)),
            "{workload}: no table line for {}",
            m.name
        );
    }
}

#[test]
fn every_workload_prints_every_metric() {
    let spec = Spec::embedded();
    assert_eq!(
        spec.workloads,
        ["simt_gemm", "wmma_gemm", "mem_chase", "nn_zoo", "serve_mix"]
    );
    for w in &spec.workloads {
        let timed = smoke(w, false);
        check(&timed, &spec.end_to_end, w);
        let m = parse_result_line(timed.lines().last().unwrap()).unwrap();
        assert!(
            m.metrics.values().all(|&v| v > 0.0),
            "{w}: end-to-end metrics are never 0"
        );
        check(&smoke(w, true), &spec.per_layer, w);
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_tcsim-perf"))
        .args(["run", "--workload", "nope"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
