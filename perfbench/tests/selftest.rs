//! Self-test of the benchmark binary: each workload at a tiny length,
//! twice at one seed, must repeat its deterministic counters and digest
//! exactly; the metrics it prints must be the ones `BENCHMARK.json`
//! declares; bad arguments must fail fast with a one-line error.

use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["paper_table1", "deep_queue", "chaos_journal"];

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// The result object on the last line of standard output, and the digest
/// from the summary line.
fn result(out: &Output) -> (Value, String) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let value: Value = serde_json::from_str(last).expect("the result line is JSON");
    let digest = stdout
        .split_whitespace()
        .find_map(|w| w.strip_prefix("digest="))
        .expect("the summary line names the digest")
        .to_string();
    (value, digest)
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

/// (name, unit) of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// (name, unit) of every metric a result carries, sorted.
fn printed(result: &Value) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    v.sort();
    v
}

#[test]
fn tiny_runs_repeat_their_counters_exactly() {
    for w in WORKLOADS {
        let args = ["--workload", w, "--seed", "7", "--ops", "4", "--trace", "1"];
        let (a, digest_a) = result(&perfbench(&args));
        let (b, digest_b) = result(&perfbench(&args));
        assert_eq!(digest_a, digest_b, "{w}: digest");
        for name in [
            "sim.events_per_run",
            "aimes.allocs_per_run",
            "leaked_kb_per_run",
            "journal.bytes_per_run",
        ] {
            assert_eq!(metric(&a, name), metric(&b, name), "{w}: {name}");
        }
        assert!(metric(&a, "sim.events_per_run") > 0.0, "{w}: no events");
        assert_eq!(a.get("failed").and_then(Value::as_u64), Some(0), "{w}");
    }
}

#[test]
fn journal_and_analytics_are_exercised_only_by_chaos_journal() {
    for w in WORKLOADS {
        let (r, _) = result(&perfbench(&[
            "--workload",
            w,
            "--seed",
            "7",
            "--ops",
            "2",
            "--trace",
            "1",
        ]));
        let chaos = w == "chaos_journal";
        for name in ["journal.bytes_per_run", "analytics.analyze_ms_per_run"] {
            assert_eq!(metric(&r, name) > 0.0, chaos, "{w}: {name}");
        }
        if chaos {
            assert_eq!(metric(&r, "analytics.closure_ok_ratio"), 1.0);
        }
    }
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let mut end_to_end = declared("end_to_end");
    let mut per_layer = declared("per_layer");
    end_to_end.sort();
    per_layer.sort();
    let run = |trace: &str| {
        result(&perfbench(&[
            "--workload",
            "deep_queue",
            "--seed",
            "7",
            "--ops",
            "1",
            "--trace",
            trace,
        ]))
        .0
    };
    assert_eq!(printed(&run("0")), end_to_end);
    assert_eq!(printed(&run("1")), per_layer);
}

#[test]
fn bad_arguments_fail_with_one_line() {
    let unwritable = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("no-such-dir")
        .join("out.json");
    let unwritable = unwritable.to_str().expect("utf-8 path");
    for args in [
        vec!["--workload", "no_such_workload"],
        vec!["--workload", "deep_queue", "--seed", "seven"],
        vec!["--workload", "deep_queue", "--trace", "2"],
        vec!["--workload", "deep_queue", "--out", unwritable],
        vec!["--workload", "deep_queue", "--bogus"],
        vec!["--seed", "1"],
    ] {
        let out = perfbench(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("perfbench: error: "),
            "{args:?}: {stderr}"
        );
    }
}
