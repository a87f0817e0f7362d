//! HTTP surface: routes, error → status mapping, JSON rendering.
//!
//! The handler is a pure function of `(registry, shutdown flag,
//! request)` so it can be unit-tested without a socket; `SpeServer`
//! plugs it into the vendored [`httpd`] server. Routes:
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /health` | process liveness (always 200) |
//! | `GET /ready` | 200 once at least one model serves, else 503 |
//! | `GET /metrics` | per-model counters + breaker state, JSON |
//! | `POST /score/{model}` | CSV rows in, JSON scores out; `X-Timeout-Ms` header sets the request deadline. Binary models answer `{"scores":[...]}`; k > 2 models answer `{"n_classes":k,"classes":[[...],...]}` |
//! | `POST /models/{name}/load` | register/redeploy from the SPEM path in the body |
//! | `POST /models/{name}/swap` | zero-downtime model update from the path in the body |
//! | `POST /models/{name}/shadow` | attach a shadow candidate from the path in the body |
//! | `GET /models/{name}/shadow` | divergence stats, JSON |
//! | `POST /models/{name}/promote` | promote the shadow candidate |
//! | `POST /models/{name}/online` | enable drift-aware online retraining; body holds `key=value` lines (empty body = defaults) |
//! | `GET /models/{name}/online` | retrain-loop status (window fill, drift score, retrain counters), JSON |
//! | `DELETE /models/{name}/online` | disable online retraining |
//! | `POST /models/{name}/feedback` | CSV labeled feedback rows (`f1,...,fd,label`) for the retrain loop |
//! | `DELETE /models/{name}` | unregister |
//! | `POST /admin/shutdown` | request a clean server shutdown |
//!
//! Failure-mode statuses: shed load answers `429` with `Retry-After`
//! (seconds, per spec) and `X-Retry-After-Ms` (the engine's own
//! estimate), a missed deadline answers `504`, an open circuit `503`
//! with the probe window as `Retry-After`, an unknown model `404`, a
//! client-supplied bad artifact (corrupt file, wrong width) `400`, and
//! a scoring-side fault (model panic) `500`.

use crate::registry::{EntrySnapshot, ModelEntry, ModelRegistry};
use crate::shadow::DivergenceStats;
use httpd::{Request, Response};
use spe_data::Matrix;
use spe_online::{OnlineConfig, OnlineStatus};
use spe_serve::{scalar_score, ServeError};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deadline applied when the client sends no `X-Timeout-Ms`.
pub const DEFAULT_TIMEOUT_MS: u64 = 1_000;
/// Upper bound on client-requested deadlines.
pub const MAX_TIMEOUT_MS: u64 = 60_000;

/// Routes one request against the registry. Setting `shutdown` is the
/// only side effect outside the registry; the embedding server polls
/// the flag for its exit.
pub fn handle(registry: &ModelRegistry, shutdown: &AtomicBool, req: &Request) -> Response {
    let path = req.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["health"]) => Response::text(200, "ok"),
        ("GET", ["ready"]) => {
            if registry.names().is_empty() {
                Response::text(503, "no models registered")
            } else {
                Response::text(200, "ready")
            }
        }
        ("GET", ["metrics"]) => Response::json(200, metrics_json(registry)),
        ("POST", ["score", name]) => score(registry, name, req),
        ("POST", ["models", name, "load"]) => {
            with_body_path(req, |p| registry.register_file(name, p))
        }
        ("POST", ["models", name, "swap"]) => with_body_path(req, |p| registry.swap(name, p)),
        ("POST", ["models", name, "shadow"]) => with_body_path(req, |p| {
            registry
                .get(name)?
                .start_shadow(p, registry.shadow_capacity())
        }),
        ("GET", ["models", name, "shadow"]) => match registry.get(name) {
            Ok(entry) => match entry.shadow_stats() {
                Some(stats) => Response::json(200, divergence_json(&stats)),
                None => error_json(404, &ServeError::UnknownModel(format!("{name}/shadow"))),
            },
            Err(e) => manage_error(&e),
        },
        ("POST", ["models", name, "promote"]) => {
            match registry.get(name).and_then(|entry| entry.promote_shadow()) {
                Ok(()) => Response::json(200, "{\"promoted\":true}".to_string()),
                Err(e) => manage_error(&e),
            }
        }
        ("POST", ["models", name, "online"]) => {
            let outcome = registry.get(name).and_then(|entry| {
                let cfg = OnlineConfig::from_kv_lines(&req.body_str())?;
                entry.enable_online(cfg)
            });
            match outcome {
                Ok(()) => Response::json(200, "{\"online\":true}".to_string()),
                Err(e) => manage_error(&e),
            }
        }
        ("GET", ["models", name, "online"]) => match registry.get(name) {
            Ok(entry) => match entry.online_status() {
                Some(status) => Response::json(200, online_json(&status)),
                None => error_json(404, &ServeError::UnknownModel(format!("{name}/online"))),
            },
            Err(e) => manage_error(&e),
        },
        ("DELETE", ["models", name, "online"]) => {
            match registry.get(name).and_then(|entry| entry.disable_online()) {
                Ok(()) => Response::json(200, "{\"online\":false}".to_string()),
                Err(e) => manage_error(&e),
            }
        }
        ("POST", ["models", name, "feedback"]) => feedback(registry, name, req),
        ("DELETE", ["models", name]) => match registry.remove(name) {
            Ok(()) => Response::json(200, "{\"removed\":true}".to_string()),
            Err(e) => manage_error(&e),
        },
        ("POST", ["admin", "shutdown"]) => {
            shutdown.store(true, Ordering::Release);
            Response::text(200, "shutting down")
        }
        // Known prefixes with the wrong verb get 405, the rest 404.
        (_, ["health" | "ready" | "metrics" | "score" | "models" | "admin", ..]) => {
            Response::text(405, "method not allowed")
        }
        _ => Response::text(404, "no such route"),
    }
}

/// `POST /score/{model}`: read the deadline, count the body's rows, run
/// the entry's breaker/admission/deadline gauntlet — parsing the rows
/// only once the request is admitted — and render scores or the mapped
/// failure.
///
/// Binary models answer `{"scores":[...]}` exactly as they always
/// have; a model serving more than two classes answers
/// `{"n_classes":k,"classes":[[...k probabilities...],...]}` with one
/// row-major distribution per input row.
fn score(registry: &ModelRegistry, name: &str, req: &Request) -> Response {
    let entry = match registry.get(name) {
        Ok(e) => e,
        Err(e) => return manage_error(&e),
    };
    let timeout = match parse_timeout(req) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let n_rows = lines(&req.body).count();
    if n_rows == 0 {
        return error_json(
            400,
            &ServeError::BadRequest("request body holds no rows".into()),
        );
    }
    let width = registry.n_features();
    let dist = match entry.score_flat(n_rows, timeout, || parse_rows(&req.body, width, n_rows)) {
        Ok(dist) => dist,
        Err(e) => return score_error(&entry, &e),
    };
    let k = entry.engine().n_classes();
    let mut body = String::with_capacity(32 + dist.len() * 8);
    if k == 2 {
        body.push_str("{\"scores\":[");
        for (i, row) in dist.chunks_exact(2).enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&json_f64(scalar_score(row)));
        }
        body.push_str("]}");
    } else {
        body.push_str(&format!("{{\"n_classes\":{k},\"classes\":["));
        for (i, row) in dist.chunks_exact(k).enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push('[');
            for (j, p) in row.iter().enumerate() {
                if j > 0 {
                    body.push(',');
                }
                body.push_str(&json_f64(*p));
            }
            body.push(']');
        }
        body.push_str("]}");
    }
    Response::json(200, body)
}

/// `POST /models/{name}/feedback`: labeled CSV rows — each line is the
/// feature row with the true 0/1 label as its **last** column — routed
/// into the model's retrain loop.
fn feedback(registry: &ModelRegistry, name: &str, req: &Request) -> Response {
    let entry = match registry.get(name) {
        Ok(e) => e,
        Err(e) => return manage_error(&e),
    };
    let width = registry.n_features();
    let rows = match parse_rows(&req.body, width + 1, 0) {
        Ok(rows) if rows.rows() > 0 => rows,
        Ok(_) => {
            return error_json(
                400,
                &ServeError::BadRequest("request body holds no rows".into()),
            )
        }
        Err(ServeError::RowWidthMismatch { got, .. }) => {
            let msg = format!(
                "feedback rows want {width} features plus a trailing 0/1 label, got {got} fields"
            );
            return error_json(400, &ServeError::BadRequest(msg));
        }
        Err(e) => return error_json(400, &e),
    };
    let n_rows = rows.rows();
    let mut flat = Vec::with_capacity(n_rows * width);
    let mut labels = Vec::with_capacity(n_rows);
    for (i, row) in rows.iter_rows().enumerate() {
        let label = row[width];
        if label != 0.0 && label != 1.0 {
            let msg = format!("row {}: trailing label must be 0 or 1, got {label}", i + 1);
            return error_json(400, &ServeError::BadRequest(msg));
        }
        labels.push(label as u8);
        flat.extend_from_slice(&row[..width]);
    }
    let x = Matrix::from_vec(n_rows, width, flat);
    match entry.ingest_feedback(x, labels) {
        Ok(()) => Response::json(200, format!("{{\"ingested\":{n_rows}}}")),
        Err(e) => manage_error(&e),
    }
}

/// Runs a management action on the (trimmed) file path in the body.
fn with_body_path(req: &Request, action: impl FnOnce(&Path) -> Result<(), ServeError>) -> Response {
    let body = req.body_str();
    let path = body.trim();
    if path.is_empty() {
        return error_json(
            400,
            &ServeError::Io("request body must hold a model file path".into()),
        );
    }
    match action(Path::new(path)) {
        Ok(()) => Response::json(200, "{\"ok\":true}".to_string()),
        Err(e) => manage_error(&e),
    }
}

fn parse_timeout(req: &Request) -> Result<Duration, Response> {
    match req.header("x-timeout-ms") {
        None => Ok(Duration::from_millis(DEFAULT_TIMEOUT_MS)),
        Some(v) => match v.parse::<u64>() {
            Ok(ms) => Ok(Duration::from_millis(ms.min(MAX_TIMEOUT_MS))),
            Err(_) => Err(error_json(
                400,
                &ServeError::InvalidConfig(format!("X-Timeout-Ms wants an integer, got {v:?}")),
            )),
        },
    }
}

/// The body's non-blank lines, with their 1-based line numbers.
fn lines(body: &[u8]) -> impl Iterator<Item = (usize, &[u8])> {
    body.split(|&b| b == b'\n')
        .map(<[u8]>::trim_ascii)
        .enumerate()
        .filter(|(_, line)| !line.is_empty())
        .map(|(i, line)| (i + 1, line))
}

/// Parses CSV lines of `width` numbers each straight into one row-major
/// block, checking every row's width before parsing it. `rows_hint`
/// sizes the block up front, so callers pass only a row count that
/// admission has already bounded.
fn parse_rows(body: &[u8], width: usize, rows_hint: usize) -> Result<Matrix, ServeError> {
    let mut flat = Vec::with_capacity(rows_hint * width);
    let mut rows = 0;
    for (lineno, line) in lines(body) {
        let got = line.iter().filter(|&&b| b == b',').count() + 1;
        if got != width {
            return Err(ServeError::RowWidthMismatch {
                expected: width,
                got,
            });
        }
        for field in line.split(|&b| b == b',') {
            let value = std::str::from_utf8(field)
                .ok()
                .and_then(|f| f.trim().parse::<f64>().ok())
                .ok_or_else(|| {
                    ServeError::BadRequest(format!("line {lineno}: not a CSV row of numbers"))
                })?;
            flat.push(value);
        }
        rows += 1;
    }
    Ok(Matrix::from_vec(rows, width, flat))
}

/// Scoring-path failure mapping; `entry` supplies the shed retry hint.
fn score_error(entry: &Arc<ModelEntry>, e: &ServeError) -> Response {
    match e {
        ServeError::QueueFull { .. } => {
            let ms = entry.retry_hint_ms();
            error_json(429, e)
                .with_header("retry-after", &ms.div_ceil(1000).max(1).to_string())
                .with_header("x-retry-after-ms", &ms.to_string())
        }
        ServeError::CircuitOpen { retry_after_ms } => error_json(503, e)
            .with_header(
                "retry-after",
                &retry_after_ms.div_ceil(1000).max(1).to_string(),
            )
            .with_header("x-retry-after-ms", &retry_after_ms.to_string()),
        ServeError::DeadlineExceeded => error_json(504, e),
        ServeError::UnknownModel(_) => error_json(404, e),
        ServeError::RowWidthMismatch { .. }
        | ServeError::OutputLengthMismatch { .. }
        | ServeError::BadRequest(_) => error_json(400, e),
        ServeError::Shutdown | ServeError::EngineStopped => error_json(503, e),
        // Corrupt (model panicked) and anything else unexpected is a
        // server-side fault.
        _ => error_json(500, e),
    }
}

/// Management-path failure mapping: the artifact (or name) the client
/// supplied is the usual culprit.
fn manage_error(e: &ServeError) -> Response {
    match e {
        ServeError::UnknownModel(_) => error_json(404, e),
        ServeError::Io(_)
        | ServeError::Corrupt(_)
        | ServeError::Truncated
        | ServeError::ChecksumMismatch { .. }
        | ServeError::UnsupportedVersion { .. }
        | ServeError::KindMismatch { .. }
        | ServeError::UnsupportedModel
        | ServeError::ModelWidthMismatch { .. }
        | ServeError::ModelClassMismatch { .. }
        | ServeError::Unquantizable(_)
        | ServeError::InvalidConfig(_) => error_json(400, e),
        _ => error_json(500, e),
    }
}

fn error_json(status: u16, e: &ServeError) -> Response {
    Response::json(
        status,
        format!("{{\"error\":{}}}", json_string(&e.to_string())),
    )
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// f64 → JSON number. Rust's shortest-round-trip `Display` is valid
/// JSON for finite values; non-finite scores (which a well-formed model
/// never emits) are rendered as null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn divergence_json(s: &DivergenceStats) -> String {
    format!(
        "{{\"compared\":{},\"dropped\":{},\"candidate_failures\":{},\"mean_abs_diff\":{},\"max_abs_diff\":{},\"disagreements\":{}}}",
        s.compared,
        s.dropped,
        s.candidate_failures,
        json_f64(s.mean_abs_diff),
        json_f64(s.max_abs_diff),
        s.disagreements
    )
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map(json_f64).unwrap_or_else(|| "null".into())
}

/// Retrain-loop state for the status endpoint and `/metrics`.
fn online_json(s: &OnlineStatus) -> String {
    let last_error = match &s.last_error {
        Some(e) => json_string(e),
        None => "null".into(),
    };
    format!(
        "{{\"ingested_rows\":{},\"window_rows\":{},\"window_minority\":{},\"window_majority\":{},\"window_fill\":{},\"holdout_rows\":{},\"drift_score\":{},\"drift_reference\":{},\"consecutive_breaches\":{},\"total_breaches\":{},\"drift_events\":{},\"retrains_attempted\":{},\"retrains_promoted\":{},\"retrains_rejected\":{},\"retrains_failed\":{},\"last_promotion_delta\":{},\"retraining\":{},\"last_error\":{}}}",
        s.ingested_rows,
        s.window_rows,
        s.window_minority,
        s.window_majority,
        json_f64(s.window_fill),
        s.holdout_rows,
        json_opt_f64(s.drift_score),
        json_opt_f64(s.drift_reference),
        s.consecutive_breaches,
        s.total_breaches,
        s.drift_events,
        s.retrains_attempted,
        s.retrains_promoted,
        s.retrains_rejected,
        s.retrains_failed,
        json_opt_f64(s.last_promotion_delta),
        s.retraining,
        last_error
    )
}

fn entry_json(snap: &EntrySnapshot) -> String {
    let shadow = match &snap.shadow {
        Some(s) => divergence_json(s),
        None => "null".into(),
    };
    let online = match &snap.online {
        Some(s) => online_json(s),
        None => "null".into(),
    };
    format!(
        "{{\"breaker_state\":{},\"breaker_trips\":{},\"scored\":{},\"shed\":{},\"deadline_misses\":{},\"scoring_failures\":{},\"heals\":{},\"queue_depth\":{},\"n_classes\":{},\"requests\":{},\"batches\":{},\"p50_batch_latency_us\":{},\"p99_batch_latency_us\":{},\"model_swaps\":{},\"shadow\":{},\"online\":{}}}",
        json_string(snap.breaker_state),
        snap.breaker_trips,
        snap.scored,
        snap.shed,
        snap.deadline_misses,
        snap.scoring_failures,
        snap.heals,
        snap.queue_depth,
        snap.n_classes,
        snap.engine.requests,
        snap.engine.batches,
        snap.engine.p50_batch_latency_us,
        snap.engine.p99_batch_latency_us,
        snap.engine.model_swaps,
        shadow,
        online
    )
}

fn metrics_json(registry: &ModelRegistry) -> String {
    let mut out = format!("{{\"n_features\":{},\"models\":{{", registry.n_features());
    for (i, snap) in registry.snapshots().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(&snap.name));
        out.push(':');
        out.push_str(&entry_json(snap));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use spe_learners::traits::ConstantModel;
    use spe_serve::EngineConfig;

    fn request(method: &str, path: &str, headers: &[(&str, &str)], body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_lowercase(), v.to_string()))
                .collect(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn registry() -> ModelRegistry {
        let mut config = RegistryConfig::new(2);
        config.engine = EngineConfig::builder()
            .max_batch(4)
            .queue_capacity(8)
            .build()
            .unwrap_or_else(|e| panic!("{e}"));
        let reg = ModelRegistry::new(config);
        reg.register_model("m", Box::new(ConstantModel(0.25)))
            .unwrap_or_else(|e| panic!("{e}"));
        reg
    }

    #[test]
    fn health_ready_metrics() {
        let reg = registry();
        let stop = AtomicBool::new(false);
        assert_eq!(
            handle(&reg, &stop, &request("GET", "/health", &[], "")).status,
            200
        );
        assert_eq!(
            handle(&reg, &stop, &request("GET", "/ready", &[], "")).status,
            200
        );
        let metrics = handle(&reg, &stop, &request("GET", "/metrics", &[], ""));
        assert_eq!(metrics.status, 200);
        let body = metrics.body_str();
        assert!(
            body.contains("\"m\":{\"breaker_state\":\"closed\""),
            "{body}"
        );
        // An empty registry is alive but not ready.
        let empty = ModelRegistry::new(RegistryConfig::new(2));
        assert_eq!(
            handle(&empty, &stop, &request("GET", "/ready", &[], "")).status,
            503
        );
        assert_eq!(
            handle(&empty, &stop, &request("GET", "/health", &[], "")).status,
            200
        );
    }

    #[test]
    fn score_round_trip_and_client_errors() {
        let reg = registry();
        let stop = AtomicBool::new(false);
        let ok = handle(
            &reg,
            &stop,
            &request("POST", "/score/m", &[], "0.0,0.0\n1.0,1.0\n"),
        );
        assert_eq!(ok.status, 200);
        assert_eq!(ok.body_str(), "{\"scores\":[0.25,0.25]}");
        // Unknown model.
        let missing = handle(&reg, &stop, &request("POST", "/score/nope", &[], "0,0\n"));
        assert_eq!(missing.status, 404);
        // Wrong row width is the client's fault.
        let narrow = handle(&reg, &stop, &request("POST", "/score/m", &[], "0.0\n"));
        assert_eq!(narrow.status, 400);
        // Garbage body.
        let garbage = handle(&reg, &stop, &request("POST", "/score/m", &[], "a,b\n"));
        assert_eq!(garbage.status, 400);
        let empty = handle(&reg, &stop, &request("POST", "/score/m", &[], "\n\n"));
        assert_eq!(empty.status, 400);
        // Bad timeout header.
        let bad_timeout = handle(
            &reg,
            &stop,
            &request("POST", "/score/m", &[("x-timeout-ms", "soon")], "0,0\n"),
        );
        assert_eq!(bad_timeout.status, 400);
    }

    #[test]
    fn oversized_request_sheds_with_retry_hints() {
        let reg = registry();
        let stop = AtomicBool::new(false);
        // Watermark is 7 of 8 (0.9 default): eight rows shed.
        let body = "0,0\n".repeat(8);
        let shed = handle(&reg, &stop, &request("POST", "/score/m", &[], &body));
        assert_eq!(shed.status, 429);
        assert!(shed.header("retry-after").is_some());
        assert!(shed.header("x-retry-after-ms").is_some());
        // The server survives and keeps scoring.
        let ok = handle(&reg, &stop, &request("POST", "/score/m", &[], "0,0\n"));
        assert_eq!(ok.status, 200);
    }

    #[test]
    fn shed_runs_before_parse() {
        let reg = registry();
        let stop = AtomicBool::new(false);
        // Eight unparseable lines are over the 7-row watermark: the gate
        // answers before any line is parsed.
        let body = "not,numbers\n".repeat(8);
        let shed = handle(&reg, &stop, &request("POST", "/score/m", &[], &body));
        assert_eq!(shed.status, 429, "{}", shed.body_str());
        assert!(shed.header("retry-after").is_some());
        // Under the watermark the same lines are a client error.
        let bad = handle(&reg, &stop, &request("POST", "/score/m", &[], "a,b\n"));
        assert_eq!(bad.status, 400);
        assert_eq!(
            bad.body_str(),
            "{\"error\":\"line 1: not a CSV row of numbers\"}"
        );
    }

    /// Scores after a 30 ms stall: every short deadline misses.
    struct Wedged;
    impl spe_learners::Model for Wedged {
        fn predict_proba_view(&self, x: spe_data::MatrixView<'_>) -> Vec<f64> {
            std::thread::sleep(Duration::from_millis(30));
            vec![0.5; x.rows()]
        }
    }

    #[test]
    fn wedged_multiclass_model_misses_deadlines_and_trips_its_breaker() {
        let reg = registry();
        reg.register_model(
            "mc",
            Box::new(spe_learners::OneVsRestModel::new(vec![
                Box::new(Wedged),
                Box::new(Wedged),
                Box::new(Wedged),
            ])),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let stop = AtomicBool::new(false);
        let short = [("X-Timeout-Ms", "5")];
        // The default breaker opens after five consecutive misses.
        for _ in 0..5 {
            let miss = handle(&reg, &stop, &request("POST", "/score/mc", &short, "0,0\n"));
            assert_eq!(miss.status, 504, "{}", miss.body_str());
        }
        let open = handle(&reg, &stop, &request("POST", "/score/mc", &short, "0,0\n"));
        assert_eq!(open.status, 503, "{}", open.body_str());
        let snap = reg.get("mc").unwrap_or_else(|e| panic!("{e}")).snapshot();
        assert_eq!(snap.deadline_misses, 5);
        assert_eq!(snap.breaker_trips, 1);
        // The binary model beside it keeps serving.
        let ok = handle(&reg, &stop, &request("POST", "/score/m", &[], "0,0\n"));
        assert_eq!(ok.status, 200);
    }

    #[test]
    fn zero_timeout_misses_its_deadline() {
        let reg = registry();
        let stop = AtomicBool::new(false);
        let miss = handle(
            &reg,
            &stop,
            &request("POST", "/score/m", &[("X-Timeout-Ms", "0")], "0,0\n"),
        );
        assert_eq!(miss.status, 504);
    }

    #[test]
    fn multiclass_score_returns_distributions() {
        let reg = registry();
        reg.register_model(
            "mc",
            Box::new(spe_learners::OneVsRestModel::new(vec![
                Box::new(ConstantModel(0.2)),
                Box::new(ConstantModel(0.3)),
                Box::new(ConstantModel(0.5)),
            ])),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let stop = AtomicBool::new(false);
        let ok = handle(
            &reg,
            &stop,
            &request("POST", "/score/mc", &[], "0,0\n1,1\n"),
        );
        assert_eq!(ok.status, 200);
        assert_eq!(
            ok.body_str(),
            "{\"n_classes\":3,\"classes\":[[0.2,0.3,0.5],[0.2,0.3,0.5]]}"
        );
        // Binary models on the same server keep the scalar shape.
        let bin = handle(&reg, &stop, &request("POST", "/score/m", &[], "0,0\n"));
        assert_eq!(bin.body_str(), "{\"scores\":[0.25]}");
        // Metrics carry the class width.
        let metrics = handle(&reg, &stop, &request("GET", "/metrics", &[], ""));
        assert!(
            metrics.body_str().contains("\"n_classes\":3"),
            "{}",
            metrics.body_str()
        );
        // Swapping a binary artifact under a 3-class model is the
        // client's fault: 400 with a class-mismatch message.
        let path = std::env::temp_dir().join(format!(
            "spe-server-http-classgate-{}.spe",
            std::process::id()
        ));
        spe_serve::save_model(&path, &ConstantModel(0.9), Vec::new())
            .unwrap_or_else(|e| panic!("{e}"));
        let swap = handle(
            &reg,
            &stop,
            &request(
                "POST",
                "/models/mc/swap",
                &[],
                path.to_str().unwrap_or_default(),
            ),
        );
        assert_eq!(swap.status, 400, "{}", swap.body_str());
        assert!(swap.body_str().contains("classes"), "{}", swap.body_str());
        std::fs::remove_file(&path).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn online_routes_enable_feed_status_disable() {
        let reg = registry();
        let stop = AtomicBool::new(false);
        // No loop yet: status is a typed 404, metrics render null.
        assert_eq!(
            handle(&reg, &stop, &request("GET", "/models/m/online", &[], "")).status,
            404
        );
        let metrics = handle(&reg, &stop, &request("GET", "/metrics", &[], ""));
        assert!(
            metrics.body_str().contains("\"online\":null"),
            "{}",
            metrics.body_str()
        );

        let body = "window_majority=64\nwindow_minority=16\nmin_rows=16\n";
        let on = handle(&reg, &stop, &request("POST", "/models/m/online", &[], body));
        assert_eq!(on.status, 200, "{}", on.body_str());
        assert_eq!(on.body_str(), "{\"online\":true}");
        assert_eq!(
            handle(&reg, &stop, &request("POST", "/models/m/online", &[], "")).status,
            400,
            "double enable is the client's fault"
        );

        // Labeled feedback: features then the 0/1 label, per line.
        let fed = handle(
            &reg,
            &stop,
            &request("POST", "/models/m/feedback", &[], "0.1,0.2,1\n0.3,0.4,0\n"),
        );
        assert_eq!(fed.status, 200, "{}", fed.body_str());
        assert_eq!(fed.body_str(), "{\"ingested\":2}");

        let status = handle(&reg, &stop, &request("GET", "/models/m/online", &[], ""));
        assert_eq!(status.status, 200);
        assert!(
            status.body_str().contains("\"ingested_rows\":2"),
            "{}",
            status.body_str()
        );
        assert!(
            status.body_str().contains("\"retrains_promoted\":0"),
            "{}",
            status.body_str()
        );
        let metrics = handle(&reg, &stop, &request("GET", "/metrics", &[], ""));
        assert!(
            metrics
                .body_str()
                .contains("\"online\":{\"ingested_rows\":2"),
            "{}",
            metrics.body_str()
        );

        let off = handle(&reg, &stop, &request("DELETE", "/models/m/online", &[], ""));
        assert_eq!(off.status, 200);
        assert_eq!(off.body_str(), "{\"online\":false}");
        assert_eq!(
            handle(&reg, &stop, &request("GET", "/models/m/online", &[], "")).status,
            404
        );
        assert_eq!(
            handle(&reg, &stop, &request("DELETE", "/models/m/online", &[], "")).status,
            404,
            "double disable is a typed 404"
        );
    }

    #[test]
    fn online_routes_reject_bad_input() {
        let reg = registry();
        let stop = AtomicBool::new(false);
        // Unknown model on every online route.
        for (method, path) in [
            ("POST", "/models/nope/online"),
            ("GET", "/models/nope/online"),
            ("DELETE", "/models/nope/online"),
            ("POST", "/models/nope/feedback"),
        ] {
            assert_eq!(
                handle(&reg, &stop, &request(method, path, &[], "0,0,1\n")).status,
                404,
                "{method} {path}"
            );
        }
        // Malformed config keys are the client's fault.
        assert_eq!(
            handle(
                &reg,
                &stop,
                &request("POST", "/models/m/online", &[], "bogus_key=1\n")
            )
            .status,
            400
        );
        // Feedback without an enabled loop is a typed 404.
        assert_eq!(
            handle(
                &reg,
                &stop,
                &request("POST", "/models/m/feedback", &[], "0,0,1\n")
            )
            .status,
            404
        );
        assert_eq!(
            handle(&reg, &stop, &request("POST", "/models/m/online", &[], "")).status,
            200
        );
        // Missing trailing label and non-binary labels are 400s.
        for body in ["0.1,0.2\n", "0.1,0.2,0.5\n", "0.1,0.2,2\n"] {
            let resp = handle(
                &reg,
                &stop,
                &request("POST", "/models/m/feedback", &[], body),
            );
            assert_eq!(resp.status, 400, "{body:?}: {}", resp.body_str());
        }
        let status = handle(&reg, &stop, &request("GET", "/models/m/online", &[], ""));
        assert!(
            status.body_str().contains("\"ingested_rows\":0"),
            "rejected feedback must not count: {}",
            status.body_str()
        );
    }

    #[test]
    fn shutdown_route_sets_the_flag() {
        let reg = registry();
        let stop = AtomicBool::new(false);
        assert_eq!(
            handle(&reg, &stop, &request("POST", "/admin/shutdown", &[], "")).status,
            200
        );
        assert!(stop.load(Ordering::Acquire));
    }

    #[test]
    fn unknown_routes_and_wrong_verbs() {
        let reg = registry();
        let stop = AtomicBool::new(false);
        assert_eq!(
            handle(&reg, &stop, &request("GET", "/nope", &[], "")).status,
            404
        );
        assert_eq!(
            handle(&reg, &stop, &request("DELETE", "/health", &[], "")).status,
            405
        );
        assert_eq!(
            handle(&reg, &stop, &request("GET", "/score/m", &[], "")).status,
            405
        );
        // Management routes on unknown models are typed 404s.
        assert_eq!(
            handle(&reg, &stop, &request("DELETE", "/models/nope", &[], "")).status,
            404
        );
        assert_eq!(
            handle(&reg, &stop, &request("GET", "/models/m/shadow", &[], "")).status,
            404,
            "no shadow attached yet"
        );
        // Load with an empty body is a 400.
        assert_eq!(
            handle(&reg, &stop, &request("POST", "/models/x/load", &[], "  ")).status,
            400
        );
        // Load with a nonexistent file is a 400.
        assert_eq!(
            handle(
                &reg,
                &stop,
                &request("POST", "/models/x/load", &[], "/nonexistent/model.spe")
            )
            .status,
            400
        );
    }
}
