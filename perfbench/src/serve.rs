//! The serving workloads, driven over real HTTP from one process with
//! `nproc` client threads, each owning one keep-alive connection.
//!
//! - `serve_small`: an open loop of 1-row `POST /score` requests to a
//!   binary SPE on the quantized backend, on a fixed rate ladder. Per
//!   request cost dominates: transport, routing, breaker and admission,
//!   and the engine's coalescing wait.
//! - `serve_bulk`: a closed loop of 256-row requests, alternating time
//!   slices between the binary model (scalar queue path) and a 4-class
//!   model of the same width (k-wide direct path). Per-row cost
//!   dominates: parse, submit and rendezvous, encode and kernel.
//!
//! Every fourth response is parsed and compared bit for bit with the
//! model's direct `predict_proba` / `predict_proba_k` on the same rows;
//! one differing response fails the run's score gate.
//!
//! A traced run splits one request's time from outside: the HTTP
//! handler wrapping `spe_server::http::handle` is timed (handle), the
//! same load is replayed against `ModelEntry::score` directly (entry),
//! and the same rows go through `ScoringEngine::score_into` (kernel).

use crate::common::{
    hist_tree, model_hash, noisy_board, noisy_kway_board, nproc, peak_rss_mb, provenance,
    spe_config, SETUP_REPS, WIDTH,
};
use crate::json::{self, Value};
use crate::report::{Gates, Outcome};
use crate::stats::{median, relative_spread, slo_rps, tail, Rung, Timed};
use crate::trace::time_ms;
use crate::RunArgs;
use httpd::{ClientConn, HttpServer, Request};
use spe_core::MultiClassSpeConfig;
use spe_data::{Matrix, MatrixView};
use spe_learners::traits::Model;
use spe_runtime::fork_seed;
use spe_serve::{EngineConfig, QuantizedModel, ScoreBackend, ServeStats};
use spe_server::{ModelEntry, ModelRegistry, RegistryConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SERVE_MINORITY: usize = 2_000;
const SERVE_MAJORITY: usize = 18_000;
/// 16k/3.2k/640/128 rows: the binary model's training size.
const KWAY_LARGEST: usize = 16_000;
const KWAY_RATIO: f64 = 5.0;
/// Distinct rows requests draw from.
const POOL_ROWS: usize = 4_096;
const BULK_ROWS: usize = 256;
/// Every n-th response is checked bit for bit.
const CHECK_EVERY: usize = 4;
/// Latency limit of the `slo_rps` objective.
const LIMIT_MS: f64 = 25.0;
/// The `serve_small` rate ladder, requests per second, doubling so the
/// knee (about 850 req/s for two blocking connections at ~2.3 ms a
/// request) falls well between two rungs.
const LADDER: [f64; 4] = [125.0, 250.0, 500.0, 1000.0];
/// The rung `score_p50_ms` and the reported tail are read at on
/// `serve_small`, and the rate of its traced phases.
const REFERENCE_RATE: f64 = 250.0;
/// Share of the run the reference rung gets, so its tail rests on
/// thousands of requests; the other rungs split the rest.
const REFERENCE_SHARE: f64 = 0.4;
/// Most requests a tail is computed over: below 10,000 the reported
/// percentile is p99 with up to 99 samples beyond it, where more
/// samples would move it to p99.9 with as few as ten.
const TAIL_SAMPLES: usize = 9_999;
/// Length of one `serve_bulk` slice before it switches model.
const SLICE_S: f64 = 0.5;
const BINARY: &str = "/score/spe";
const KWAY: &str = "/score/spe4";
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// Handler-side timing, on only during traced phases.
#[derive(Default)]
struct HandleTimes {
    on: AtomicBool,
    binary_ns: AtomicU64,
    binary_n: AtomicU64,
    kway_ns: AtomicU64,
    kway_n: AtomicU64,
}

impl HandleTimes {
    fn record(&self, path: &str, ns: u64) {
        let (sum, n) = if path == KWAY {
            (&self.kway_ns, &self.kway_n)
        } else {
            (&self.binary_ns, &self.binary_n)
        };
        sum.fetch_add(ns, Ordering::Relaxed);
        n.fetch_add(1, Ordering::Relaxed);
    }

    fn mean_ms(sum: &AtomicU64, n: &AtomicU64) -> f64 {
        sum.load(Ordering::Relaxed) as f64 / 1e6 / n.load(Ordering::Relaxed).max(1) as f64
    }
}

/// One request's rows, as sent and as the model scores them directly.
struct Body {
    text: Vec<u8>,
    rows: Vec<Vec<f64>>,
    /// Row-major block for the kernel replay.
    flat: Vec<f64>,
    expected: Vec<f64>,
    expected_k: Vec<f64>,
}

struct Served {
    registry: Arc<ModelRegistry>,
    times: Arc<HandleTimes>,
    check: ScoreCheck,
    /// Stops its worker threads when dropped.
    server: HttpServer,
    bodies: Vec<Body>,
    hashes: Vec<u64>,
    quantize_compile_ms: f64,
}

fn csv_row(row: &[f64], out: &mut String) {
    for (j, v) in row.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        // Shortest round-trip form: the server parses back the same bits.
        out.push_str(&v.to_string());
    }
    out.push('\n');
}

fn bodies(
    pool: &Matrix,
    rows_per_body: usize,
    expected: &[f64],
    expected_k: &[f64],
    k: usize,
) -> Vec<Body> {
    (0..pool.rows() / rows_per_body)
        .map(|b| {
            let range = b * rows_per_body..(b + 1) * rows_per_body;
            let mut text = String::new();
            let mut rows = Vec::with_capacity(rows_per_body);
            for i in range.clone() {
                csv_row(pool.row(i), &mut text);
                rows.push(pool.row(i).to_vec());
            }
            Body {
                text: text.into_bytes(),
                flat: rows.concat(),
                rows,
                expected: expected[range.clone()].to_vec(),
                expected_k: if k > 0 {
                    expected_k[range.start * k..range.end * k].to_vec()
                } else {
                    Vec::new()
                },
            }
        })
        .collect()
}

/// One direct compile of the served snapshot, timed.
fn compile_ms(model: &dyn Model) -> Result<f64, String> {
    let snapshot = model.snapshot().ok_or("served model has no snapshot")?;
    let (ms, q) = time_ms(|| QuantizedModel::compile(&snapshot, WIDTH));
    q.map_err(|e| e.to_string())?;
    Ok(ms)
}

/// Generates the data, trains the served models, and starts the server
/// with them installed on the quantized backend.
fn set_up(seed: u64, rows_per_body: usize, with_kway: bool) -> Result<Served, String> {
    let s = |i| fork_seed(seed, i);
    let train = noisy_board(SERVE_MINORITY, SERVE_MAJORITY, s(1));
    let binary = spe_config(hist_tree())
        .try_fit_dataset(&train, s(5))
        .map_err(|e| e.to_string())?;
    let pool = noisy_board(POOL_ROWS / 10, POOL_ROWS - POOL_ROWS / 10, s(2));
    let pool = pool.x();
    let expected = binary.predict_proba(pool);
    let mut hashes = vec![model_hash(&binary).ok_or("binary model has no snapshot")?];
    let quantize_compile_ms = compile_ms(&binary)?;

    let engine = EngineConfig::builder()
        .backend(ScoreBackend::Quantized)
        .build()
        .map_err(|e| e.to_string())?;
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        engine,
        ..RegistryConfig::new(WIDTH)
    }));
    registry
        .register_model("spe", Box::new(binary))
        .map_err(|e| e.to_string())?;

    let mut expected_k = Vec::new();
    let mut k = 0;
    if with_kway {
        let kway_train = noisy_kway_board(KWAY_LARGEST, KWAY_RATIO, s(3));
        let kway = MultiClassSpeConfig {
            binary: spe_config(hist_tree()),
            ..MultiClassSpeConfig::default()
        }
        .try_fit_dataset(&kway_train, s(5))
        .map_err(|e| e.to_string())?;
        k = kway.n_classes();
        expected_k = kway.predict_proba_k(pool);
        hashes.push(model_hash(&kway).ok_or("k-way model has no snapshot")?);
        registry
            .register_model("spe4", Box::new(kway))
            .map_err(|e| e.to_string())?;
    }

    let times = Arc::new(HandleTimes::default());
    let (reg, t) = (Arc::clone(&registry), Arc::clone(&times));
    let shutdown = AtomicBool::new(false);
    let server = HttpServer::start("127.0.0.1:0", nproc(), move |req: &Request| {
        if !t.on.load(Ordering::Relaxed) {
            return spe_server::http::handle(&reg, &shutdown, req);
        }
        let t0 = Instant::now();
        let resp = spe_server::http::handle(&reg, &shutdown, req);
        t.record(&req.path, t0.elapsed().as_nanos() as u64);
        resp
    })
    .map_err(|e| format!("cannot start the server: {e}"))?;
    Ok(Served {
        registry,
        times,
        check: ScoreCheck::default(),
        server,
        bodies: bodies(pool, rows_per_body, &expected, &expected_k, k),
        hashes,
        quantize_compile_ms,
    })
}

/// Set-up `SETUP_REPS` times: median seconds, the spread of those
/// times, the last set-up, and a gate that every set-up trained the
/// same models.
fn timed_setup(
    seed: u64,
    rows_per_body: usize,
    with_kway: bool,
    gates: &mut Gates,
) -> Result<(f64, f64, Served), String> {
    let mut times = Vec::new();
    let mut last: Option<Served> = None;
    for _ in 0..SETUP_REPS {
        let previous = last.take().map(|s| s.hashes);
        let (ms, served) = time_ms(|| set_up(seed, rows_per_body, with_kway));
        let served = served?;
        if let Some(prev) = previous {
            gates.check(prev == served.hashes, || {
                format!(
                    "served models differ between set-ups: {prev:x?} vs {:x?}",
                    served.hashes
                )
            });
        }
        times.push(ms / 1e3);
        last = Some(served);
    }
    Ok((
        median(&times),
        relative_spread(&times),
        last.expect("SETUP_REPS > 0"),
    ))
}

/// Whether a 200 response carries exactly the expected scores.
pub fn response_matches(body: &[u8], expected: &[f64], expected_k: &[f64], kway: bool) -> bool {
    let Ok(v) = std::str::from_utf8(body)
        .map_err(|e| e.to_string())
        .and_then(json::parse)
    else {
        return false;
    };
    let bits = |vals: &[Value], want: &[f64]| {
        vals.len() == want.len()
            && vals
                .iter()
                .zip(want)
                .all(|(a, b)| a.as_f64().is_some_and(|a| a.to_bits() == b.to_bits()))
    };
    if kway {
        let Some(classes) = v.get("classes").and_then(Value::as_array) else {
            return false;
        };
        let flat: Vec<Value> = classes
            .iter()
            .flat_map(|row| row.as_array().unwrap_or(&[]).to_vec())
            .collect();
        bits(&flat, expected_k)
    } else {
        v.get("scores")
            .and_then(Value::as_array)
            .is_some_and(|s| bits(s, expected))
    }
}

/// The score gate: sampled 200 responses, each compared bit for bit
/// with the direct scores. A mismatch is not a transport failure; it
/// fails the gate, so the run reports `correct: false`.
#[derive(Debug, Default)]
pub struct ScoreCheck {
    checked: AtomicU64,
    mismatches: AtomicU64,
}

impl ScoreCheck {
    /// Compares one response body with the expected scores and records
    /// the outcome; true when it matched.
    pub fn record(&self, body: &[u8], expected: &[f64], expected_k: &[f64], kway: bool) -> bool {
        let ok = response_matches(body, expected, expected_k, kway);
        self.checked.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.mismatches.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Responses compared so far, and how many of them differed.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.checked.load(Ordering::Relaxed),
            self.mismatches.load(Ordering::Relaxed),
        )
    }

    /// Fails `gates` unless some responses were compared and all of
    /// them matched.
    pub fn gate(&self, gates: &mut Gates) {
        let (checked, mismatches) = self.counts();
        gates.check(checked > 0 && mismatches == 0, || {
            format!(
                "{mismatches} of {checked} sampled HTTP responses differ from the direct scores"
            )
        });
    }
}

/// Sends request `i` over HTTP; true on a 200. Every `CHECK_EVERY`-th
/// answer goes through the score gate.
fn http_send(conn: &mut ClientConn, served: &Served, i: usize, kway: bool) -> bool {
    let body = &served.bodies[i % served.bodies.len()];
    let path = if kway { KWAY } else { BINARY };
    match conn.request("POST", path, &[], &body.text, CLIENT_TIMEOUT) {
        Ok(resp) if resp.status == 200 => {
            if i.is_multiple_of(CHECK_EVERY) {
                served
                    .check
                    .record(&resp.body, &body.expected, &body.expected_k, kway);
            }
            true
        }
        _ => false,
    }
}

/// Calls the registry entry directly with request `i`'s rows.
fn direct_send(entry: &Arc<ModelEntry>, served: &Served, i: usize, kway: bool) -> bool {
    let body = &served.bodies[i % served.bodies.len()];
    if kway {
        entry.score_classes(&body.rows).is_ok()
    } else {
        entry
            .score(
                &body.rows,
                Duration::from_millis(spe_server::http::DEFAULT_TIMEOUT_MS),
            )
            .is_ok()
    }
}

/// Offers `rate` requests per second for `seconds`, request `i` due at
/// `i / rate`, spread round-robin over one thread per state. Each
/// thread blocks on its request, so a slow answer makes the following
/// ones late; their latency counts from when they were due. Requests
/// still unsent `LIMIT_MS` after the schedule ends are given up: they
/// miss the objective but are not attempted operations, and the rung
/// ends on time however slow the server.
fn open_loop<S: Send>(
    states: &mut [S],
    rate: f64,
    seconds: f64,
    send: impl Fn(&mut S, usize) -> bool + Sync,
) -> Vec<Timed> {
    let n = ((rate * seconds).round() as usize).max(1);
    let threads = states.len();
    let start = Instant::now();
    let cutoff = start + Duration::from_secs_f64(seconds + LIMIT_MS / 1e3);
    let ms = |t: Instant| t.duration_since(start).as_secs_f64() * 1e3;
    let send = &send;
    let mut all: Vec<Timed> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(j, state)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(n / threads + 1);
                    for i in (j..n).step_by(threads) {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let attempt = sent < cutoff;
                        let ok = attempt && send(state, i);
                        let done = Instant::now();
                        out.push(Timed {
                            due_ms: ms(due),
                            sent_ms: ms(sent),
                            done_ms: ms(done),
                            sent: attempt,
                            ok,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    all.sort_by(|a, b| a.due_ms.total_cmp(&b.due_ms));
    all
}

/// One closed-loop slice: every thread sends back to back until
/// `seconds` pass. Returns per-request (round-trip ms, ok) and the
/// slice's wall time in seconds.
fn closed_slice<S: Send>(
    states: &mut [S],
    seconds: f64,
    first: usize,
    send: impl Fn(&mut S, usize) -> bool + Sync,
) -> (Vec<(f64, bool)>, f64) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let threads = states.len();
    let send = &send;
    let out = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(j, state)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = first + j;
                    while Instant::now() < end {
                        let (ms, ok) = time_ms(|| send(state, i));
                        out.push((ms, ok));
                        i += threads;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    (out, start.elapsed().as_secs_f64())
}

fn connect(served: &Served, n: usize) -> Result<Vec<ClientConn>, String> {
    let addr = served.server.addr().to_string();
    (0..n)
        .map(|_| ClientConn::connect(&addr).map_err(|e| format!("cannot connect: {e}")))
        .collect()
}

fn entry(served: &Served, name: &str) -> Result<Arc<ModelEntry>, String> {
    served.registry.get(name).map_err(|e| e.to_string())
}

/// Mean wall time per request of the engine's direct path on each
/// request's rows.
fn kernel_ms(served: &Served, entry: &ModelEntry, kway: bool) -> Result<f64, String> {
    let engine = entry.engine();
    let k = engine.n_classes();
    let mut total = 0.0;
    let reps = 4;
    for _ in 0..reps {
        for body in &served.bodies {
            let rows = body.rows.len();
            let view = MatrixView::from_slice(&body.flat, rows, WIDTH);
            let (ms, r) = if kway {
                let mut out = vec![0.0; rows * k];
                time_ms(|| engine.score_classes_into(view, &mut out))
            } else {
                let mut out = vec![0.0; rows];
                time_ms(|| engine.score_into(view, &mut out))
            };
            r.map_err(|e| e.to_string())?;
            total += ms;
        }
    }
    Ok(total / (reps * served.bodies.len()) as f64)
}

/// At most `TAIL_SAMPLES` of `v`, taken at an even stride across it.
fn evenly_capped(v: &[f64]) -> Vec<f64> {
    let step = v.len().div_ceil(TAIL_SAMPLES).max(1);
    v.iter().step_by(step).copied().collect()
}

fn mean(v: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in v {
        sum += x;
        n += 1;
    }
    sum / n.max(1) as f64
}

fn rung_detail(r: &Rung) -> Value {
    let lat = r.latencies_ms();
    let mut d = Value::object();
    d.insert("rate", r.rate)
        .insert("requests", r.requests.len())
        .insert("failures", r.failures())
        .insert("p50_ms", median(&lat))
        .insert(
            "lateness_p50_ms",
            median(
                &r.requests
                    .iter()
                    .map(Timed::lateness_ms)
                    .collect::<Vec<_>>(),
            ),
        )
        .insert("meets_slo", r.meets(LIMIT_MS));
    if let Some(t) = r.tail() {
        d.insert("tail_percentile", t.percentile)
            .insert("tail_ms", t.value)
            .insert("tail_beyond", t.beyond);
    }
    d
}

/// Engine counters of the binary entry between two snapshots.
fn engine_layer(
    out: &mut Vec<(&'static str, f64)>,
    before: &ServeStats,
    after: &ServeStats,
    max_batch: usize,
) {
    let batches = after.batches - before.batches;
    let rows_per_batch = (after.requests - before.requests) as f64 / batches.max(1) as f64;
    out.extend([
        ("serve.batches", batches as f64),
        ("serve.rows_per_batch", rows_per_batch),
        ("serve.batch_fill", rows_per_batch / max_batch as f64),
        ("serve.batch_p50_us", after.p50_batch_latency_us as f64),
        ("serve.batch_p99_us", after.p99_batch_latency_us as f64),
        ("serve.queue_high_water", after.queue_high_water as f64),
    ]);
}

/// Failure counters of every entry, cumulative over the run.
fn server_failures(out: &mut Vec<(&'static str, f64)>, served: &Served) {
    let snaps = served.registry.snapshots();
    let sum = |f: fn(&spe_server::EntrySnapshot) -> u64| snaps.iter().map(f).sum::<u64>() as f64;
    out.extend([
        ("server.shed", sum(|s| s.shed)),
        ("server.deadline_misses", sum(|s| s.deadline_misses)),
        ("server.breaker_open", sum(|s| s.breaker_trips)),
    ]);
}

pub fn serve_small(args: &RunArgs) -> Result<Outcome, String> {
    let mut gates = Gates::default();
    let (setup_s, setup_spread, served) = timed_setup(args.seed, 1, false, &mut gates)?;
    let mut conns = connect(&served, nproc())?;
    let send = |c: &mut ClientConn, i: usize| http_send(c, &served, i, false);
    let mut details = Value::object();
    details
        .insert("setup_s", setup_s)
        .insert("setup_s_spread", setup_spread)
        .insert("limit_ms", LIMIT_MS)
        .insert("reference_rate", REFERENCE_RATE)
        .insert("open_loop", "fixed spacing, due-time latency");
    let (metrics, attempted, failed) = if !args.trace {
        let rest = args.seconds * (1.0 - REFERENCE_SHARE) / (LADDER.len() - 1) as f64;
        let ladder: Vec<Rung> = LADDER
            .iter()
            .map(|&rate| {
                let step = if rate == REFERENCE_RATE {
                    args.seconds * REFERENCE_SHARE
                } else {
                    rest
                };
                Rung {
                    rate,
                    requests: open_loop(&mut conns, rate, step, send),
                }
            })
            .collect();
        let reference = ladder
            .iter()
            .find(|r| r.rate == REFERENCE_RATE)
            .expect("the reference rate is on the ladder");
        let ref_tail = reference
            .tail()
            .ok_or("reference rung too short for a tail")?;
        // The tail rests on a few dozen samples beyond p99 and moved
        // between ~4 and ~21 ms from run to run on a shared 2-vCPU host,
        // wider than any bound the benchmark may set, so it is reported
        // here and not bounded. So is `slo_rps`, which those tails
        // decide: stalls of the host pushed p99 at 125 or 250 req/s past
        // 25 ms in some runs, and it read 125, 250 or 500 across seeds.
        details
            .insert(
                "ladder",
                Value::Array(ladder.iter().map(rung_detail).collect()),
            )
            .insert("slo_rps", slo_rps(&ladder, LIMIT_MS))
            .insert("score_tail_ms", ref_tail.value)
            .insert("score_tail_percentile", ref_tail.percentile)
            .insert("score_tail_beyond", ref_tail.beyond);
        let p50 = median(&reference.latencies_ms());
        details.insert("score_p50_ms", p50);
        let sent = ladder.iter().flat_map(|r| &r.requests).filter(|r| r.sent);
        let (attempted, failed) = sent.fold((0, 0), |(n, f), r| (n + 1, f + usize::from(!r.ok)));
        let metrics = vec![
            ("setup_s", setup_s),
            ("op_ms", p50),
            ("peak_rss_mb", peak_rss_mb()),
        ];
        (metrics, attempted, failed)
    } else {
        let seg_s = args.seconds / (3 * SEGMENTS) as f64;
        let bin = entry(&served, "spe")?;
        let mut entries: Vec<Arc<ModelEntry>> = (0..nproc()).map(|_| Arc::clone(&bin)).collect();
        let direct_send = |e: &mut Arc<ModelEntry>, i| direct_send(e, &served, i, false);
        let before = bin.engine().stats();
        let (mut plain, mut traced, mut direct) = (Vec::new(), Vec::new(), Vec::new());
        interleave(&served.times, |seg| match seg {
            Segment::Plain => plain.extend(open_loop(&mut conns, REFERENCE_RATE, seg_s, send)),
            Segment::Traced => traced.extend(open_loop(&mut conns, REFERENCE_RATE, seg_s, send)),
            Segment::Direct => {
                direct.extend(open_loop(&mut entries, REFERENCE_RATE, seg_s, direct_send))
            }
        });
        let after = bin.engine().stats();
        let round_trip =
            |rs: &[Timed]| rs.iter().map(|r| r.done_ms - r.sent_ms).collect::<Vec<_>>();
        let handle = HandleTimes::mean_ms(&served.times.binary_ns, &served.times.binary_n);
        let entry_ms = mean(round_trip(&direct));
        let mut m = Vec::new();
        engine_layer(&mut m, &before, &after, bin.engine().max_batch());
        server_failures(&mut m, &served);
        m.extend([
            ("serve.kernel_ms", kernel_ms(&served, &bin, false)?),
            ("serve.quantize_compile_ms", served.quantize_compile_ms),
            ("server.handle_ms", handle),
            ("server.entry_score_ms", entry_ms),
            ("server.parse_render_ms", handle - entry_ms),
            ("httpd.transport_ms", mean(round_trip(&traced)) - handle),
            (
                "httpd.gen_lateness_ms",
                mean(traced.iter().map(Timed::lateness_ms)),
            ),
        ]);
        let base = median(&round_trip(&plain));
        m.push((
            "trace.overhead_pct",
            (median(&round_trip(&traced)) - base) / base * 100.0,
        ));
        let all: Vec<&Timed> = plain
            .iter()
            .chain(&traced)
            .chain(&direct)
            .filter(|r| r.sent)
            .collect();
        let failed = all.iter().filter(|r| !r.ok).count();
        (m, all.len(), failed)
    };
    drop(conns);
    served.check.gate(&mut gates);
    let (checked, mismatches) = served.check.counts();
    details
        .insert("checked_responses", checked)
        .insert("score_mismatches", mismatches);
    Ok(Outcome {
        attempted: attempted as u64,
        failed_ops: failed as u64,
        gates,
        metrics,
        details,
        provenance: provenance(nproc(), nproc(), nproc()),
    })
}

/// Segments of each kind in a traced run.
const SEGMENTS: usize = 4;

/// The load one segment of a traced run carries.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Segment {
    /// HTTP, handler timing off: the overhead baseline.
    Plain,
    /// HTTP, handler timing on.
    Traced,
    /// The same load against `ModelEntry` directly, no HTTP.
    Direct,
}

/// Runs `segment` `3 * SEGMENTS` times, cycling through the kinds, so
/// slow drift of the machine falls on all three alike.
fn interleave(times: &HandleTimes, mut segment: impl FnMut(Segment)) {
    for _ in 0..SEGMENTS {
        for kind in [Segment::Plain, Segment::Traced, Segment::Direct] {
            times.on.store(kind == Segment::Traced, Ordering::Relaxed);
            segment(kind);
        }
    }
    times.on.store(false, Ordering::Relaxed);
}

/// Closed-loop slices alternating binary and k-way requests; per-model
/// (round trip ms, ok) and wall time.
#[derive(Default)]
struct Bulk {
    binary: Vec<(f64, bool)>,
    binary_wall: f64,
    kway: Vec<(f64, bool)>,
    kway_wall: f64,
}

fn bulk_load<S: Send>(
    states: &mut [S],
    seconds: f64,
    send: impl Fn(&mut S, usize, bool) -> bool + Sync,
) -> Bulk {
    let mut b = Bulk::default();
    let slices = ((seconds / SLICE_S).round() as usize).max(2);
    let mut first = 0;
    for s in 0..slices {
        let kway = s % 2 == 1;
        let (reqs, wall) = closed_slice(states, SLICE_S, first, |st, i| send(st, i, kway));
        first += reqs.len();
        if kway {
            b.kway.extend(reqs);
            b.kway_wall += wall;
        } else {
            b.binary.extend(reqs);
            b.binary_wall += wall;
        }
    }
    b
}

impl Bulk {
    fn absorb(&mut self, other: Bulk) {
        self.binary.extend(other.binary);
        self.binary_wall += other.binary_wall;
        self.kway.extend(other.kway);
        self.kway_wall += other.kway_wall;
    }

    fn rows_per_s(reqs: &[(f64, bool)], wall: f64) -> f64 {
        (reqs.iter().filter(|r| r.1).count() * BULK_ROWS) as f64 / wall
    }

    fn latencies(reqs: &[(f64, bool)]) -> Vec<f64> {
        reqs.iter()
            .map(|&(ms, ok)| if ok { ms } else { f64::INFINITY })
            .collect()
    }

    fn counts(&self) -> (usize, usize) {
        let all = self.binary.iter().chain(&self.kway);
        let n = self.binary.len() + self.kway.len();
        (n, all.filter(|r| !r.1).count())
    }
}

pub fn serve_bulk(args: &RunArgs) -> Result<Outcome, String> {
    let mut gates = Gates::default();
    let (setup_s, setup_spread, served) = timed_setup(args.seed, BULK_ROWS, true, &mut gates)?;
    let mut conns = connect(&served, nproc())?;
    let send = |c: &mut ClientConn, i: usize, kway: bool| http_send(c, &served, i, kway);
    let mut details = Value::object();
    details
        .insert("setup_s", setup_s)
        .insert("setup_s_spread", setup_spread)
        .insert("rows_per_request", BULK_ROWS)
        .insert("slice_s", SLICE_S)
        .insert("closed_loop_connections", nproc());
    let (metrics, attempted, failed) = if !args.trace {
        let load = bulk_load(&mut conns, args.seconds, send);
        let lat = Bulk::latencies(&load.binary);
        let t = tail(&evenly_capped(&lat)).ok_or("too few binary requests for a tail")?;
        // As on serve_small, the tail moved too much from run to run on a
        // shared 2-vCPU host to be bounded; it is reported here.
        let (p50, kway_p50) = (median(&lat), median(&Bulk::latencies(&load.kway)));
        details
            .insert("binary_requests", load.binary.len())
            .insert("kway_requests", load.kway.len())
            .insert("score_tail_ms", t.value)
            .insert("score_tail_percentile", t.percentile)
            .insert("score_tail_beyond", t.beyond)
            .insert("score_p50_ms", p50)
            .insert("kway_p50_ms", kway_p50)
            .insert(
                "rows_per_s",
                Bulk::rows_per_s(&load.binary, load.binary_wall),
            )
            .insert(
                "kway_rows_per_s",
                Bulk::rows_per_s(&load.kway, load.kway_wall),
            );
        let metrics = vec![
            ("setup_s", setup_s),
            ("op_ms", p50 + kway_p50),
            ("peak_rss_mb", peak_rss_mb()),
        ];
        let (n, f) = load.counts();
        (metrics, n, f)
    } else {
        let seg_s = args.seconds / (3 * SEGMENTS) as f64;
        let bin = entry(&served, "spe")?;
        let kway = entry(&served, "spe4")?;
        let mut entries: Vec<(Arc<ModelEntry>, Arc<ModelEntry>)> = (0..nproc())
            .map(|_| (Arc::clone(&bin), Arc::clone(&kway)))
            .collect();
        let direct_send = |(b, k): &mut (Arc<ModelEntry>, Arc<ModelEntry>), i, is_k| {
            direct_send(if is_k { k } else { b }, &served, i, is_k)
        };
        let before = bin.engine().stats();
        let (mut plain, mut traced, mut direct) =
            (Bulk::default(), Bulk::default(), Bulk::default());
        interleave(&served.times, |seg| match seg {
            Segment::Plain => plain.absorb(bulk_load(&mut conns, seg_s, send)),
            Segment::Traced => traced.absorb(bulk_load(&mut conns, seg_s, send)),
            Segment::Direct => direct.absorb(bulk_load(&mut entries, seg_s, direct_send)),
        });
        let after = bin.engine().stats();
        let t = &served.times;
        let handle = HandleTimes::mean_ms(&t.binary_ns, &t.binary_n);
        let entry_ms = mean(direct.binary.iter().map(|r| r.0));
        let mut m = Vec::new();
        engine_layer(&mut m, &before, &after, bin.engine().max_batch());
        server_failures(&mut m, &served);
        m.extend([
            ("serve.kernel_ms", kernel_ms(&served, &bin, false)?),
            ("serve.kway_kernel_ms", kernel_ms(&served, &kway, true)?),
            ("serve.quantize_compile_ms", served.quantize_compile_ms),
            ("server.handle_ms", handle),
            ("server.entry_score_ms", entry_ms),
            (
                "server.kway_entry_score_ms",
                mean(direct.kway.iter().map(|r| r.0)),
            ),
            ("server.parse_render_ms", handle - entry_ms),
            (
                "httpd.transport_ms",
                mean(traced.binary.iter().map(|r| r.0)) - handle,
            ),
            ("httpd.gen_lateness_ms", 0.0),
        ]);
        // Time per binary row, traced against untraced.
        let per_row = |b: &Bulk| 1.0 / Bulk::rows_per_s(&b.binary, b.binary_wall);
        m.push((
            "trace.overhead_pct",
            (per_row(&traced) - per_row(&plain)) / per_row(&plain) * 100.0,
        ));
        details.insert(
            "kway_handle_ms",
            HandleTimes::mean_ms(&t.kway_ns, &t.kway_n),
        );
        let (n1, f1) = plain.counts();
        let (n2, f2) = traced.counts();
        let (n3, f3) = direct.counts();
        (m, n1 + n2 + n3, f1 + f2 + f3)
    };
    drop(conns);
    served.check.gate(&mut gates);
    let (checked, mismatches) = served.check.counts();
    details
        .insert("checked_responses", checked)
        .insert("score_mismatches", mismatches);
    Ok(Outcome {
        attempted: attempted as u64,
        failed_ops: failed as u64,
        gates,
        metrics,
        details,
        provenance: provenance(nproc(), nproc(), nproc()),
    })
}
