//! The benchmark's own test: every workload at its smoke size, through
//! the same code and checks as the measured size, on the default seed,
//! the held-out seed and a traced run.

use std::process::Command;

use serde_json::Value;

const WORKLOADS: [&str; 4] = ["fig6_a", "design_space", "bigtopo", "fleet"];

/// Runs the benchmark, asserts a clean exit and a correct result with
/// no failed operation, and returns the result's metrics as
/// `(name, value, unit)`.
fn run(workload: &str, seed: u64, trace: bool) -> Vec<(String, f64, String)> {
    let output = Command::new(env!("CARGO_BIN_EXE_shg-perfbench"))
        .args(["--workload", workload, "--size", "smoke", "--seconds", "1"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result: Value = stdout
        .lines()
        .last()
        .expect("a result line")
        .parse()
        .expect("the result line is JSON");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, metric)| {
            let value = metric.get("value").and_then(Value::as_f64);
            let unit = metric.get("unit").and_then(Value::as_str);
            (
                name.clone(),
                value.expect("numeric value"),
                unit.expect("unit").to_owned(),
            )
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_on_both_recorded_seeds() {
    for workload in WORKLOADS {
        for seed in [42, 7] {
            let metrics = run(workload, seed, false);
            let names: Vec<&str> = metrics.iter().map(|(name, _, _)| name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "wall_s",
                    "setup_s",
                    "peak_rss_mb",
                    "eval_p50_ms",
                    "eval_p99_ms"
                ]
            );
            for (name, value, _) in &metrics {
                assert!(*value > 0.0, "{workload} {name} = {value}");
            }
        }
    }
}

#[test]
fn traced_layer_self_times_sum_to_the_traced_wall_time() {
    for workload in WORKLOADS {
        let metrics = run(workload, 42, true);
        let wall = metrics
            .iter()
            .find(|(name, _, _)| name == "trace.wall_s")
            .map(|(_, value, _)| *value)
            .expect("trace.wall_s");
        let layers: f64 = metrics
            .iter()
            .filter(|(name, _, unit)| unit == "s" && name != "trace.wall_s")
            .map(|(_, value, _)| value)
            .sum();
        assert!(
            (layers - wall).abs() <= 1e-6 * wall.max(1.0),
            "{workload}: layer self times sum to {layers}, traced wall is {wall}"
        );
    }
}
