//! `BENCHMARK.json` and the metric catalogue the benchmark prints from
//! must name the same metrics with the same units.

use perfbench::json::{parse, Value};
use perfbench::report::{self, Gates, Outcome, END_TO_END, PER_LAYER, TRACE_EXTRA};
use perfbench::WORKLOADS;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    parse(&text).expect("BENCHMARK.json is valid JSON without duplicate keys")
}

fn names_units(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let b = benchmark_json();
    assert_eq!(names_units(&b, "end_to_end"), owned(&END_TO_END));
    let per_layer: Vec<_> = PER_LAYER.iter().chain(&TRACE_EXTRA).copied().collect();
    assert_eq!(names_units(&b, "per_layer"), owned(&per_layer));
    let workloads: Vec<&str> = b
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn bounds_are_within_the_allowed_range_and_setup_has_the_largest() {
    let b = benchmark_json();
    let metrics = b
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end");
    let bound = |m: &Value| m.get("bound").and_then(Value::as_f64).expect("bound");
    let setup = metrics
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s");
    for m in metrics {
        assert!(bound(m) > 0.0 && bound(m) <= 0.25);
        assert!(bound(m) <= bound(setup));
    }
}

fn outcome(metrics: Vec<(&'static str, f64)>) -> Outcome {
    Outcome {
        attempted: 1,
        failed_ops: 0,
        gates: Gates::default(),
        metrics,
        details: Value::object(),
        provenance: Value::object(),
    }
}

#[test]
fn an_untraced_result_holds_every_end_to_end_metric() {
    let all: Vec<(&str, f64)> = END_TO_END.iter().map(|&(n, _)| (n, 2.5)).collect();
    let [_, line] = report::lines("fit_board", 1, false, &outcome(all.clone())).expect("renders");
    let result = parse(&line).expect("result parses");
    let metrics = result.get("metrics").expect("metrics");
    for (name, unit) in END_TO_END {
        let m = metrics
            .get(name)
            .expect("every end-to-end metric is printed");
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(2.5));
    }

    let missing = all[..all.len() - 1].to_vec();
    assert!(report::lines("fit_board", 1, false, &outcome(missing)).is_err());
}
