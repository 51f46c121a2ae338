//! Tiny-scale smoke runs of every workload: each emits every metric that
//! `BENCHMARK.json` names, with its unit. (That a corrupted reference
//! digest counts as a failure is tested next to the check, in `cells.rs`.)

use std::path::PathBuf;
use std::process::Command;

use nvpim_obs::Json;

const WORKLOADS: [&str; 3] = ["paper-matrix", "remap-sweep", "serve-mix"];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    nvpim_obs::json::parse(&text).expect("BENCHMARK.json parses")
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-smoke")
}

/// Runs the benchmark at tiny scale and returns its last stdout line.
fn run(workload: &str, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", "0", "--seconds", "1", "--scale", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir())
        .output()
        .expect("run the benchmark");
    assert!(output.status.success(), "{workload} exited with {}", output.status);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    nvpim_obs::json::parse(last).expect("the last line is JSON")
}

fn assert_metrics(result: &Json, section: &str, workload: &str) {
    let spec = benchmark_json();
    let metrics = result.get("metrics").expect("metrics");
    let names = spec.get(section).and_then(Json::as_array).expect("metric list");
    let Json::Obj(emitted) = metrics else { panic!("metrics must be an object") };
    assert_eq!(emitted.len(), names.len(), "{workload}: {section} emits exactly its metrics");
    for metric in names {
        let name = metric.get("name").and_then(Json::as_str).expect("name");
        let unit = metric.get("unit").and_then(Json::as_str).expect("unit");
        let got = metrics.get(name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(got.get("unit").and_then(Json::as_str), Some(unit), "{workload}: {name} unit");
        let value = got.get("value").and_then(Json::as_f64).expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if section == "end_to_end" {
            assert!(value > 0.0, "{workload}: end-to-end {name} must not be 0");
        }
    }
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}: {result:?}");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
}

#[test]
fn every_workload_emits_its_end_to_end_metrics() {
    for workload in WORKLOADS {
        assert_metrics(&run(workload, false), "end_to_end", workload);
    }
}

#[test]
fn every_workload_emits_its_per_layer_metrics() {
    for workload in WORKLOADS {
        let result = run(workload, true);
        assert_metrics(&result, "per_layer", workload);
        let table = out_dir().join(format!("{workload}-flame.txt"));
        assert!(std::fs::read_to_string(table).expect("flame table").contains("other"));
        assert!(out_dir().join(format!("{workload}-trace.json")).exists());
    }
}
