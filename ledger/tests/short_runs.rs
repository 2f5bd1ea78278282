//! Short-mode runs of the benchmark binary: every metric `BENCHMARK.json`
//! declares is printed with its unit, the correctness checks catch a
//! corrupted reply, and training repeats bitwise for one seed.
//!
//! Each run serves real loopback TCP from a child process of its own.

use serde_json::Value;
use std::path::Path;
use std::process::{Command, Output};

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Output {
    // Traced runs write their spans under the working directory.
    Command::new(env!("CARGO_BIN_EXE_fmml-ledger"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "2",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run fmml-ledger")
}

fn last_json(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("some output");
    serde_json::from_str(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"))
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    v.get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn check_metrics(workload: &str, trace: bool) {
    let out = run(workload, 7, trace, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let result = last_json(&out);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(metrics.len(), want.len(), "{workload}: metric count");
    for (name, unit) in want {
        let m = metrics
            .iter()
            .find_map(|(k, v)| (*k == name).then_some(v))
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{name} value"
        );
        assert!(
            stdout.contains(&format!("metric {name} ")),
            "{name} not printed"
        );
    }
}

#[test]
fn paper_fast_prints_every_metric() {
    check_metrics("paper-fast", false);
    check_metrics("paper-fast", true);
}

#[test]
fn small_smt_routed_prints_every_metric() {
    check_metrics("small-smt-routed", false);
    check_metrics("small-smt-routed", true);
}

#[test]
fn a_flipped_reply_fails_the_run() {
    let out = run("small-smt-routed", 3, false, &["--corrupt-reply"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "corrupted run passed:\n{stdout}");
    assert_eq!(
        last_json(&out).get("correct").and_then(Value::as_bool),
        Some(false)
    );
    assert!(
        stdout.contains("check FAIL served series fingerprint"),
        "{stdout}"
    );
}

#[test]
fn training_repeats_bitwise_for_one_seed() {
    let fingerprint = |out: &Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find_map(|l| l.split("param_fingerprint=").nth(1).map(str::to_string))
            .expect("fingerprint printed")
    };
    let a = run("paper-fast", 5, false, &[]);
    let b = run("paper-fast", 5, false, &[]);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    let c = run("paper-fast", 6, false, &[]);
    assert_ne!(fingerprint(&a), fingerprint(&c));
}
