//! Golden HTTP responses: `POST /score` bodies must stay byte-identical.
//!
//! Fixed-seed binary and 4-class histogram SPE models are served on the
//! quantized backend through `http::handle` (no socket). Each case pins
//! the FNV-1a hash of the response body bytes and checks every returned
//! probability, after the text round trip, bit for bit against the
//! model's direct `predict_proba` / `predict_proba_k` on the same parsed
//! rows. The pinned hashes were taken before scoring moved to
//! request-sized queue units; any change to parsing, queueing, batching
//! or rendering that alters one byte of a response fails here.

use httpd::Request;
use spe_core::{MultiClassSpeConfig, SelfPacedEnsembleConfig};
use spe_data::Matrix;
use spe_datasets::{
    checkerboard, multiclass_checkerboard, CheckerboardConfig, MultiClassCheckerboardConfig,
};
use spe_learners::{DecisionTreeConfig, Model, SplitMethod};
use spe_serve::{fnv1a, EngineConfig, ScoreBackend};
use spe_server::{http, ModelRegistry, RegistryConfig};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

const ROWS: [usize; 3] = [1, 7, 256];

fn spe(n: usize) -> SelfPacedEnsembleConfig {
    SelfPacedEnsembleConfig::with_base(
        n,
        Arc::new(DecisionTreeConfig {
            split_method: SplitMethod::Histogram,
            ..DecisionTreeConfig::default()
        }),
    )
}

/// `rows` CSV lines of `x`, each value in shortest round-trip form.
fn body(x: &Matrix, rows: usize) -> String {
    let mut out = String::new();
    for i in 0..rows {
        let fields: Vec<String> = x.row(i).iter().map(f64::to_string).collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

/// The rows the server sees: the body's text parsed back.
fn parsed(body: &str) -> Matrix {
    let rows: Vec<Vec<f64>> = body
        .lines()
        .map(|l| l.split(',').map(|f| f.parse().unwrap()).collect())
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    Matrix::from_rows(&refs)
}

fn numbers(s: &str) -> Vec<f64> {
    s.split(',').map(|v| v.parse().unwrap()).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|p| p.to_bits()).collect()
}

fn post(registry: &ModelRegistry, path: &str, body: &str) -> String {
    let req = Request {
        method: "POST".into(),
        path: path.into(),
        headers: vec![("x-timeout-ms".into(), "10000".into())],
        body: body.as_bytes().to_vec(),
    };
    let resp = http::handle(registry, &AtomicBool::new(false), &req);
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    String::from_utf8(resp.body).unwrap()
}

#[test]
fn score_responses_are_pinned() {
    let binary_data = checkerboard(&CheckerboardConfig::small(300, 3000), 21);
    let binary = spe(8).try_fit_dataset(&binary_data, 22).unwrap();
    let kway_data =
        multiclass_checkerboard(&MultiClassCheckerboardConfig::geometric(4, 2400, 3.0), 23);
    let kway = MultiClassSpeConfig {
        binary: spe(5),
        ..MultiClassSpeConfig::default()
    }
    .try_fit_dataset(&kway_data, 24)
    .unwrap();
    assert_eq!(kway.n_classes(), 4);

    // Direct predictions on the round-tripped rows, taken before the
    // models move into the registry.
    let cases: Vec<(String, Vec<f64>, Vec<f64>)> = ROWS
        .iter()
        .map(|&rows| {
            let text = body(binary_data.x(), rows);
            let x = parsed(&text);
            let (p, dist) = (binary.predict_proba(&x), kway.predict_proba_k(&x));
            (text, p, dist)
        })
        .collect();

    let registry = ModelRegistry::new(RegistryConfig {
        engine: EngineConfig::builder()
            .backend(ScoreBackend::Quantized)
            .build()
            .unwrap(),
        ..RegistryConfig::new(2)
    });
    registry.register_model("bin", Box::new(binary)).unwrap();
    registry.register_model("k4", Box::new(kway)).unwrap();

    let mut hashes = Vec::new();
    for (text, p, dist) in &cases {
        let resp = post(&registry, "/score/bin", text);
        let scores = resp
            .strip_prefix("{\"scores\":[")
            .and_then(|s| s.strip_suffix("]}"))
            .unwrap();
        assert_eq!(bits(&numbers(scores)), bits(p));
        hashes.push(fnv1a(resp.as_bytes()));

        let resp = post(&registry, "/score/k4", text);
        let classes = resp
            .strip_prefix("{\"n_classes\":4,\"classes\":[[")
            .and_then(|s| s.strip_suffix("]]}"))
            .unwrap();
        let got: Vec<f64> = classes.split("],[").flat_map(numbers).collect();
        assert_eq!(bits(&got), bits(dist));
        hashes.push(fnv1a(resp.as_bytes()));
    }
    assert_eq!(
        hashes,
        [
            7796808432497939163,
            530914390304347657,
            14044409833203209823,
            17007464116987843037,
            6954960629168008049,
            2980628972105698787
        ]
    );
}
