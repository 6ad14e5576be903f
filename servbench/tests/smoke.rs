//! Smoke test: every workload at tiny scale, untraced and traced. Each
//! run must pass its output checks and print exactly the metrics
//! `BENCHMARK.json` lists for its mode, with their units; seeded counts
//! must repeat for one seed and change with it.
//!
//! ```text
//! cargo test --release --manifest-path servbench/Cargo.toml
//! ```

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "napster_catalog",
    "gnutella_guided",
    "fasttrack_batch",
    "durable_ingest",
];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let f = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (f("name"), f("unit"))
        })
        .collect()
}

/// Runs one smoke-scale workload and returns its result object.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_servbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.5",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "smoke"])
        .output()
        .expect("servbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: result line {last}: {e}"))
}

fn value(result: &Json, name: &str) -> f64 {
    match result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
    {
        Some(Json::Num(v)) => *v,
        other => panic!("metric {name}: {other:?}"),
    }
}

#[test]
fn every_workload_reports_every_listed_metric_and_passes_its_checks() {
    let doc = benchmark_json();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = listed(&doc, key);
        for w in WORKLOADS {
            let result = run(w, 1, trace);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{w} trace={trace}"
            );
            assert_eq!(
                result.get("failed"),
                Some(&Json::Num(0.0)),
                "{w} trace={trace}"
            );
            assert!(matches!(result.get("attempted"), Some(Json::Num(n)) if *n >= 1.0));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{w}: metrics")
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        matches!(m.get("value"), Some(Json::Num(v)) if v.is_finite()),
                        "{w} {name}"
                    );
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{w} trace={trace}: metric names and units");
        }
    }
}

#[test]
fn seeded_counts_repeat_for_a_seed_and_change_with_it() {
    let counts = [
        "net.hits_per_search",
        "net.query_msgs_per_search",
        "msgs_per_search",
        "alloc.per_op",
    ];
    for w in ["napster_catalog", "gnutella_guided"] {
        let a = run(w, 7, true);
        let b = run(w, 7, true);
        let c = run(w, 8, true);
        for name in counts {
            assert_eq!(
                value(&a, name),
                value(&b, name),
                "{w} {name} repeats for one seed"
            );
        }
        assert!(
            counts.iter().any(|name| value(&a, name) != value(&c, name)),
            "{w}: another seed gives other inputs"
        );
    }
    let a = run("durable_ingest", 7, false);
    let b = run("durable_ingest", 7, false);
    assert_eq!(value(&a, "success_rate"), value(&b, "success_rate"));
}
