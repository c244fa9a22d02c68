//! `--quick` smoke of the whole runner, and the shape of `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use colr_benchmark::catalogue::{
    benchmark_json, MetricDef, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS,
};
use colr_benchmark::json::Json;
use colr_benchmark::world::Workload;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Runs the binary at 1/100 scale and returns its parsed result line.
fn quick_run(workload: Workload, trace: bool, out_dir: &PathBuf) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_colr-benchmark"))
        .args(["--workload", workload.name()])
        .args(["--seed", &DEFAULT_SEED.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .arg("--quick")
        .arg("--out")
        .arg(out_dir)
        .output()
        .expect("runner starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{} trace={trace} failed:\n{stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    Json::parse(line).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {line}"))
}

#[test]
fn every_workload_reports_every_metric_of_its_kind() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    for workload in Workload::ALL {
        for (trace, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let result = quick_run(workload, trace, &out_dir);
            let keys: Vec<&str> = result
                .as_object()
                .expect("an object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let metrics = result.get("metrics").and_then(Json::as_object).unwrap();
            let reported: Vec<&str> = metrics.keys().map(String::as_str).collect();
            let mut expected: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
            expected.sort_unstable();
            assert_eq!(reported, expected, "{} trace={trace}", workload.name());
            for def in catalogue {
                let metric = &metrics[def.name];
                let value = metric.get("value").and_then(Json::as_f64).unwrap();
                assert!(value.is_finite(), "{} = {value}", def.name);
                assert_eq!(metric.get("unit").and_then(Json::as_str), Some(def.unit));
                if !trace {
                    assert!(value > 0.0, "end-to-end {} must never be 0", def.name);
                }
            }
        }
        let spans =
            std::fs::read_to_string(out_dir.join(format!("trace_{}.json", workload.name())))
                .expect("the traced run wrote its spans");
        let spans = Json::parse(&spans).expect("spans are JSON");
        assert!(!spans.as_array().expect("an array of spans").is_empty());
    }
}

#[test]
fn benchmark_json_is_the_rendered_catalogue_and_within_limits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "regenerate with: cargo run --release -- --emit-benchmark-json > ../BENCHMARK.json"
    );
    assert!(on_disk.len() <= 64 * 1024);
    let json = Json::parse(&on_disk).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = json
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert!((1..=60).contains(&RUN_SECONDS));
    let command = json.get("command").and_then(Json::as_array).unwrap();
    assert!(command.len() <= 32);
    let workloads = json.get("workloads").and_then(Json::as_array).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert!(valid_name(w.get("name").and_then(Json::as_str).unwrap()));
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let all: Vec<&MetricDef> = END_TO_END.iter().chain(&PER_LAYER).collect();
    let mut names: BTreeSet<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    for def in &all {
        assert!(valid_name(def.name), "{}", def.name);
        assert!(valid_unit(def.unit), "{}", def.unit);
        assert!(["lower", "higher"].contains(&def.better));
        assert!(names.insert(def.name), "{} is used twice", def.name);
    }
    for def in &END_TO_END {
        let bound = def.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", def.name);
    }
    assert!(PER_LAYER.iter().all(|def| def.bound.is_none()));
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    let widest = END_TO_END
        .iter()
        .filter_map(|d| d.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
}
