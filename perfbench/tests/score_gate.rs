//! The serving workloads' score gate: a sampled HTTP answer that is not
//! bit-equal to the direct scores fails the run, it is not just one
//! failed request.

use perfbench::json::{parse, Value};
use perfbench::report::{self, Gates, Outcome, END_TO_END};
use perfbench::serve::{response_matches, ScoreCheck};

const BINARY: &[u8] = br#"{"scores":[0.1,0.30000000000000004]}"#;
const KWAY: &[u8] = br#"{"n_classes":2,"classes":[[0.75,0.25],[0.5,0.5]]}"#;

#[test]
fn matching_requires_every_bit() {
    assert!(response_matches(BINARY, &[0.1, 0.1 + 0.2], &[], false));
    // 0.3 is one ulp away from what the server answered.
    assert!(!response_matches(BINARY, &[0.1, 0.3], &[], false));
    assert!(!response_matches(BINARY, &[0.1], &[], false));
    assert!(response_matches(KWAY, &[], &[0.75, 0.25, 0.5, 0.5], true));
    assert!(!response_matches(KWAY, &[], &[0.75, 0.25, 0.5, 0.25], true));
    assert!(!response_matches(b"not json", &[0.1], &[], false));
}

fn outcome(gates: Gates) -> Outcome {
    Outcome {
        attempted: 2,
        failed_ops: 0,
        gates,
        metrics: END_TO_END.iter().map(|&(name, _)| (name, 1.0)).collect(),
        details: Value::object(),
        provenance: Value::object(),
    }
}

fn result_line(out: &Outcome) -> Value {
    let [_, result] = report::lines("serve_small", 1, false, out).expect("renders");
    parse(&result).expect("result parses")
}

#[test]
fn a_wrong_score_makes_the_run_incorrect() {
    let check = ScoreCheck::default();
    assert!(check.record(BINARY, &[0.1, 0.1 + 0.2], &[], false));
    // The expected vector is wrong in its last element.
    assert!(!check.record(BINARY, &[0.1, 0.3], &[], false));
    assert_eq!(check.counts(), (2, 1));

    let mut gates = Gates::default();
    check.gate(&mut gates);
    assert_eq!(gates.violations.len(), 1);
    let out = outcome(gates);
    let result = result_line(&out);
    assert_eq!(result.get("correct"), Some(&Value::from(false)));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(1.0));
}

#[test]
fn matching_scores_pass_and_no_checks_fail() {
    let check = ScoreCheck::default();
    let mut gates = Gates::default();
    check.gate(&mut gates);
    assert_eq!(
        gates.violations.len(),
        1,
        "a run that checked nothing fails"
    );

    assert!(check.record(KWAY, &[], &[0.75, 0.25, 0.5, 0.5], true));
    let mut gates = Gates::default();
    check.gate(&mut gates);
    assert!(gates.violations.is_empty());
    let result = result_line(&outcome(gates));
    assert_eq!(result.get("correct"), Some(&Value::from(true)));
}
