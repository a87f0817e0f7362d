//! The metric catalogue and the two lines every run prints: a detail
//! object (provenance, per-phase numbers, sample counts) and, last,
//! the result object `{"correct","attempted","failed","metrics"}`.

use crate::json::{self, Value};

/// End-to-end metrics: name and unit. `BENCHMARK.json` lists the same
/// names with their bounds. Every workload reports every one of them:
///
/// - `setup_s`: median of the run's set-ups (data, shards, served models);
/// - `op_ms`: median wall time of one of each of the workload's timed
///   operations, summed: the binary and the 4-class fit on `fit_board`,
///   the in-memory and the out-of-core fit on `fit_skewed`, one 1-row
///   request on `serve_small`, one 256-row request to each served model
///   on `serve_bulk`;
/// - `peak_rss_mb`: peak resident memory of the benchmark process.
///
/// The per-phase figures of each workload (`fit_s`, `chunked_aucprc`,
/// `rows_per_s`, ...) are printed under their names in the detail line.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics of a traced run: name and unit. Every workload
/// reports all of them; a layer the workload does not reach reads 0.
/// Times are milliseconds per round of fits, or mean milliseconds per
/// request.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("data.sanitize_ms", "ms"),
    ("data.bin_build_ms", "ms"),
    ("data.shard_read_ms", "ms"),
    ("data.shard_bytes", "bytes"),
    ("data.chunks", "count"),
    ("data.spill_bytes", "bytes"),
    ("learners.member_fit_ms", "ms"),
    ("learners.member_fits", "count"),
    ("learners.member_fit_rows", "count"),
    ("learners.rescore_ms", "ms"),
    ("learners.rescore_rows", "count"),
    ("core.loop_self_ms", "ms"),
    ("core.chunked_self_ms", "ms"),
    ("core.kway_self_ms", "ms"),
    ("core.members_trained", "count"),
    ("core.members_retried", "count"),
    ("core.members_dropped", "count"),
    ("core.chunked_peak_rss_mb", "MiB"),
    ("serve.kernel_ms", "ms"),
    ("serve.kway_kernel_ms", "ms"),
    ("serve.quantize_compile_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.rows_per_batch", "count"),
    ("serve.batch_fill", "ratio"),
    ("serve.batch_p50_us", "us"),
    ("serve.batch_p99_us", "us"),
    ("serve.queue_high_water", "count"),
    ("server.handle_ms", "ms"),
    ("server.entry_score_ms", "ms"),
    ("server.kway_entry_score_ms", "ms"),
    ("server.parse_render_ms", "ms"),
    ("server.shed", "count"),
    ("server.deadline_misses", "count"),
    ("server.breaker_open", "count"),
    ("httpd.transport_ms", "ms"),
    ("httpd.gen_lateness_ms", "ms"),
];

/// Per-layer metrics that are not a single layer's but belong with the
/// trace: the cost of tracing itself and the run's failure share.
pub const TRACE_EXTRA: [(&str, &str); 2] = [("trace.overhead_pct", "%"), ("fail_ratio", "ratio")];

/// Correctness gates: each violation is recorded by message and counts
/// as one failed operation.
#[derive(Debug, Default)]
pub struct Gates {
    pub violations: Vec<String>,
}

impl Gates {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: fits and requests.
    pub attempted: u64,
    /// Operations that failed (errors, non-200 answers); gate
    /// violations are added on top when the result is assembled.
    pub failed_ops: u64,
    pub gates: Gates,
    /// Measured values by metric name: end-to-end ones in an untraced
    /// run, per-layer ones in a traced run. Names outside the catalogue
    /// are a bug.
    pub metrics: Vec<(&'static str, f64)>,
    pub details: Value,
    pub provenance: Value,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.failed_ops + self.gates.violations.len() as u64
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}

/// Renders `value` and parses it back, so what is printed is known to
/// be one well-formed JSON object without duplicate keys.
pub fn checked_line(value: &Value) -> Result<String, String> {
    let line = value.render();
    let back = json::parse(&line)?;
    if back != *value {
        return Err("JSON round trip changed the value".into());
    }
    Ok(line)
}

/// The detail line and the result line of a run.
///
/// An untraced run prints every end-to-end metric, and it is an error if
/// the workload did not measure one; a traced run prints the whole
/// per-layer catalogue, 0 for a layer the workload does not reach.
pub fn lines(workload: &str, seed: u64, trace: bool, out: &Outcome) -> Result<[String; 2], String> {
    let catalogue: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().chain(&TRACE_EXTRA).copied().collect()
    } else {
        END_TO_END.to_vec()
    };
    if let Some((name, _)) = out
        .metrics
        .iter()
        .find(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
    {
        return Err(format!("metric {name} is not in the catalogue of this run"));
    }
    let mut metrics = Value::object();
    for (name, unit) in catalogue {
        let measured = out.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1);
        let value = match (name, measured) {
            ("fail_ratio", _) => out.fail_ratio(),
            (_, Some(v)) => v,
            (_, None) if trace => 0.0,
            (_, None) => return Err(format!("the workload did not measure {name}")),
        };
        let mut m = Value::object();
        m.insert("value", value).insert("unit", unit);
        metrics.insert(name, m);
    }
    let mut result = Value::object();
    result
        .insert("correct", out.gates.violations.is_empty())
        .insert("attempted", out.attempted)
        .insert("failed", out.failed())
        .insert("metrics", metrics);

    let mut detail = Value::object();
    detail
        .insert("workload", workload)
        .insert("seed", seed)
        .insert("trace", trace)
        .insert("provenance", out.provenance.clone())
        .insert(
            "gate_violations",
            Value::Array(
                out.gates
                    .violations
                    .iter()
                    .map(|v| Value::from(v.as_str()))
                    .collect(),
            ),
        )
        .insert("fail_ratio", out.fail_ratio())
        .insert("details", out.details.clone());
    Ok([checked_line(&detail)?, checked_line(&result)?])
}
