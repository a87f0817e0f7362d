//! The training workloads.
//!
//! - `fit_board`: a binary 50-member histogram SPE on the 100k×10 noisy
//!   checkerboard at 10% minority, then a 4-class one-vs-rest SPE on a
//!   geometric board of about the same size. Member fitting dominates.
//! - `fit_skewed`: `payment_sim` at 500k rows (IR ≈ 774) fit in memory,
//!   then out of core from shards packed during set-up. Majority
//!   rescoring, hardness and sampling dominate; member fits are small
//!   because each trains on ~1.3k rows.
//!
//! A run repeats rounds (one of each phase) until its time is spent and
//! reports medians. A traced run alternates untraced and traced rounds:
//! the untraced ones give the overhead baseline, the traced ones the
//! per-layer split.

use crate::common::{
    hist_tree, model_hash, noisy_board, noisy_kway_board, nproc, peak_rss_mb, provenance,
    spe_config, K_CLASSES, SETUP_REPS,
};
use crate::json::{self, Value};
use crate::report::{Gates, Outcome};
use crate::stats::{median, relative_spread};
use crate::trace::{bin_build_ms, time_ms, Counter, Snapshot, TracedLearner, TracedSource};
use crate::RunArgs;
use spe_core::{ChunkedFitOptions, MultiClassSpeConfig};
use spe_data::{
    pack_source, Dataset, DatasetChunks, SanitizePolicy, Sanitizer, ShardReader, SpeError,
};
use spe_datasets::payment_sim;
use spe_learners::traits::{Model, SharedLearner};
use spe_metrics::{aucprc, MultiConfusion};
use spe_runtime::fork_seed;
use std::path::{Path, PathBuf};
use std::time::Instant;

const BOARD_MINORITY: usize = 10_000;
const BOARD_MAJORITY: usize = 90_000;
/// Largest class of the k-way board; ratio 5 between adjacent classes
/// gives 80k/16k/3.2k/640 rows, about the binary board's size, with a
/// smallest class large enough for a steady macro-F1.
const KWAY_LARGEST: usize = 80_000;
const KWAY_RATIO: f64 = 5.0;

/// 500k rows rather than 2M: a round (in-memory plus out-of-core fit)
/// then takes ~4.5 s, so a 20-second run measures four or more rounds
/// and reports their median. At 1M a run held two rounds and `op_ms`
/// spread 0.09 across five seeds on a shared 2-vCPU host; at 500k, 0.02.
/// The held-out set stays at 1M rows so the AUCPRC gate rests on ~1.3k
/// minority rows.
const SKEW_ROWS: usize = 500_000;
const SKEW_TEST_ROWS: usize = 1_000_000;
const SHARD_ROWS: usize = 131_072;

/// Most AUCPRC the out-of-core fit may lose against the in-memory fit
/// of the same rows.
///
/// The gate is one-sided. The two paths bin differently: `BinIndex::build`
/// cuts at midpoints of distinct-value quantiles, the streaming sketch at
/// row-weighted quantiles, a seam `DESIGN.md` documents and bounds only
/// for continuous data. `payment_sim` repeats values heavily, and there
/// the out-of-core model scores 0.008 to 0.02 *higher* on every seed
/// tried, so a two-sided check fails on every run. The signed gap is
/// printed as `chunked_aucprc_gap`.
const CHUNKED_AUCPRC_TOLERANCE: f64 = 0.005;

/// One fit, timed, with what the trace saw during it.
#[derive(Clone, Debug)]
struct Phase {
    /// The fit seed; rounds cycle through a workload's fit seeds.
    seed: u64,
    wall_ms: f64,
    hash: u64,
    quality: f64,
    counters: Snapshot,
    /// Direct-call estimates of the fit's sanitize and bin-build cost
    /// (traced rounds only).
    sanitize_ms: f64,
    bin_build_ms: f64,
    members: [usize; 3],
    /// Chunked phase only: chunks per pass, spill bytes, peak RSS.
    chunks: u64,
    spill_bytes: u64,
    peak_rss_mb: f64,
}

impl Phase {
    fn new(wall_ms: f64, hash: u64, quality: f64, counters: Snapshot) -> Self {
        Self {
            seed: 0,
            wall_ms,
            hash,
            quality,
            counters,
            sanitize_ms: 0.0,
            bin_build_ms: 0.0,
            members: [0; 3],
            chunks: 0,
            spill_bytes: 0,
            peak_rss_mb: 0.0,
        }
    }

    /// Wall time not spent in the timed children: the loop's own work.
    fn self_ms(&self) -> f64 {
        self.wall_ms
            - self.sanitize_ms
            - self.bin_build_ms
            - self.counters.ms(Counter::MemberFitNs)
            - self.counters.ms(Counter::RescoreNs)
            - self.counters.ms(Counter::ShardReadNs)
    }
}

fn base(traced: bool) -> SharedLearner {
    if traced {
        TracedLearner::wrap(hist_tree())
    } else {
        hist_tree()
    }
}

fn sanitize_ms(data: &Dataset) -> f64 {
    let (ms, r) = time_ms(|| {
        Sanitizer::new(SanitizePolicy::Reject)
            .sanitize(data)
            .is_ok()
    });
    std::hint::black_box(r);
    ms
}

fn hash_of(model: &dyn Model) -> Result<u64, SpeError> {
    model_hash(model).ok_or_else(|| SpeError::InvalidConfig("model has no snapshot".into()))
}

/// The binary in-memory fit and its held-out AUCPRC.
fn binary_phase(
    train: &Dataset,
    test: &Dataset,
    seed: u64,
    traced: bool,
) -> Result<Phase, SpeError> {
    let cfg = spe_config(base(traced));
    let before = Snapshot::now();
    let (ms, model) = time_ms(|| cfg.try_fit_dataset(train, seed));
    let model = model?;
    let counters = Snapshot::now().since(&before);
    let quality = aucprc(test.y(), &model.predict_proba(test.x()));
    let mut phase = Phase::new(ms, hash_of(&model)?, quality, counters);
    let r = model.fit_report();
    phase.members = [r.n_trained(), r.n_retried(), r.n_dropped()];
    if traced {
        phase.sanitize_ms = sanitize_ms(train);
        phase.bin_build_ms = bin_build_ms(
            cfg.base.as_ref(),
            train.x(),
            train.n_positive(),
            train.n_negative(),
        );
    }
    Ok(phase)
}

/// The 4-class one-vs-rest fit and its held-out macro-F1.
fn kway_phase(train: &Dataset, test: &Dataset, seed: u64, traced: bool) -> Result<Phase, SpeError> {
    let cfg = MultiClassSpeConfig {
        binary: spe_config(base(traced)),
        ..MultiClassSpeConfig::default()
    };
    let before = Snapshot::now();
    let (ms, model) = time_ms(|| cfg.try_fit_dataset(train, seed));
    let model = model?;
    let counters = Snapshot::now().since(&before);
    let cm = MultiConfusion::from_labels(test.y(), &model.predict_class(test.x()), K_CLASSES);
    let mut phase = Phase::new(ms, hash_of(&model)?, cm.macro_f1(), counters);
    if traced {
        // One-vs-rest sanitizes and bins the full matrix once per class.
        let counts = train.class_counts();
        for &positives in &counts {
            phase.sanitize_ms += sanitize_ms(train);
            phase.bin_build_ms += bin_build_ms(
                cfg.binary.base.as_ref(),
                train.x(),
                positives,
                train.len() - positives,
            );
        }
    }
    Ok(phase)
}

/// Directory of the shards packed during set-up.
fn shard_dir(work: &Path) -> PathBuf {
    work.join("shards")
}

/// Sizes of the shard files in `dir`, in the order `ShardReader` reads
/// them (one file per chunk, zero-padded names).
fn shard_file_sizes(dir: &Path, n_shards: usize) -> Result<Vec<u64>, String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "bin") {
            let len = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            files.push((path, len));
        }
    }
    if files.len() != n_shards {
        return Err(format!(
            "{} holds {} shard files, its manifest {n_shards}",
            dir.display(),
            files.len()
        ));
    }
    files.sort();
    Ok(files.into_iter().map(|(_, len)| len).collect())
}

/// Where the chunked child leaves its model for the parent to check.
fn chunked_model_path(work: &Path) -> PathBuf {
    work.join("chunked.spe")
}

/// The out-of-core fit, run in a child process so its peak resident
/// memory is its own and not the in-memory phase's.
fn chunked_phase(work: &Path, test: &Dataset, seed: u64, traced: bool) -> Result<Phase, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .arg("--chunked-child")
        .arg(work)
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the chunked phase: {e}"))?;
    if !output.status.success() {
        return Err(format!("chunked phase exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let report = json::parse(text.trim())?;
    let num = |k: &str| {
        report
            .get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("chunked report lacks {k}"))
    };
    let counters = report
        .get("counters")
        .and_then(|c| Snapshot::from_pairs(|name| c.get(name)?.as_f64().map(|v| v as u64)))
        .ok_or("chunked report lacks counters")?;
    let model = spe_serve::load_model(&chunked_model_path(work)).map_err(|e| e.to_string())?;
    let quality = aucprc(test.y(), &model.predict_proba(test.x()));
    let hash = hash_of(model.as_ref()).map_err(|e| e.to_string())?;
    let mut phase = Phase::new(num("fit_ms")?, hash, quality, counters);
    phase.members = [
        num("trained")? as usize,
        num("retried")? as usize,
        num("dropped")? as usize,
    ];
    phase.chunks = num("chunks")? as u64;
    phase.spill_bytes = num("spill_bytes")? as u64;
    phase.peak_rss_mb = num("peak_rss_mb")?;
    Ok(phase)
}

/// Body of the chunked child: fits from the shards in `work`, saves the
/// model there and prints its report as one JSON line.
pub fn chunked_child(work: &Path, seed: u64, traced: bool) -> Result<String, String> {
    let dir = shard_dir(work);
    let reader = ShardReader::open(&dir).map_err(|e| e.to_string())?;
    let mut source: Box<dyn spe_data::ChunkedSource> = if traced {
        let sizes = shard_file_sizes(&dir, reader.manifest().n_shards)?;
        Box::new(TracedSource::new(reader, sizes))
    } else {
        Box::new(reader)
    };
    let cfg = spe_config(base(traced));
    let opts = ChunkedFitOptions {
        spill_dir: Some(work.join("spill")),
        ..ChunkedFitOptions::default()
    };
    let before = Snapshot::now();
    let (ms, fit) = time_ms(|| cfg.try_fit_chunked(source.as_mut(), &opts, seed));
    let (model, ooc) = fit.map_err(|e| e.to_string())?;
    let counters = Snapshot::now().since(&before);
    let peak = peak_rss_mb();
    spe_serve::save_model(&chunked_model_path(work), &model, Vec::new())
        .map_err(|e| e.to_string())?;
    let r = model.fit_report();
    let mut c = Value::object();
    for (name, v) in counters.to_pairs() {
        c.insert(name, v);
    }
    let mut out = Value::object();
    out.insert("fit_ms", ms)
        .insert("peak_rss_mb", peak)
        .insert("trained", r.n_trained())
        .insert("retried", r.n_retried())
        .insert("dropped", r.n_dropped())
        .insert("chunks", ooc.chunks)
        .insert("spill_bytes", ooc.spill_bytes)
        .insert("counters", c);
    crate::report::checked_line(&out)
}

/// Runs `setup` `SETUP_REPS` times and returns the median set-up time
/// in seconds, the spread of those times, and the last result.
fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, f64, T), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (ms, v) = time_ms(&mut setup);
        times.push(ms / 1e3);
        last = Some(v?);
    }
    Ok((
        median(&times),
        relative_spread(&times),
        last.expect("SETUP_REPS > 0"),
    ))
}

/// A round is one fit of each phase; `untraced[i]` lists phase `i` of
/// every untraced round.
struct Rounds {
    untraced: Vec<Vec<Phase>>,
    traced: Vec<Vec<Phase>>,
}

/// Fit time of each round, all phases together, in milliseconds.
fn round_walls(phases: &[Vec<Phase>]) -> Vec<f64> {
    (0..phases[0].len())
        .map(|r| phases.iter().map(|p| p[r].wall_ms).sum())
        .collect()
}

/// Repeats `round` until `seconds` are spent, finishing the round in
/// progress. Rounds cycle through `fit_seeds`. A traced run alternates
/// untraced and traced rounds on the same seed and ends on a traced one.
fn run_rounds(
    args: &RunArgs,
    n_phases: usize,
    fit_seeds: &[u64],
    mut round: impl FnMut(bool, u64) -> Result<Vec<Phase>, String>,
) -> Result<Rounds, String> {
    let mut r = Rounds {
        untraced: vec![Vec::new(); n_phases],
        traced: vec![Vec::new(); n_phases],
    };
    let start = Instant::now();
    let mut done = 0u32;
    loop {
        let traced = args.trace && done % 2 == 1;
        let k = if args.trace { done / 2 } else { done };
        let seed = fit_seeds[k as usize % fit_seeds.len()];
        let slots = if traced {
            &mut r.traced
        } else {
            &mut r.untraced
        };
        for (slot, mut p) in slots.iter_mut().zip(round(traced, seed)?) {
            p.seed = seed;
            slot.push(p);
        }
        done += 1;
        let pair_done = !args.trace || done.is_multiple_of(2);
        if pair_done && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    Ok(r)
}

/// Gates every phase: all rounds on one fit seed, traced or not, built
/// the same model.
fn gate_hashes(gates: &mut Gates, rounds: &Rounds, names: &[&str]) {
    for (i, name) in names.iter().enumerate() {
        let all: Vec<&Phase> = rounds.untraced[i].iter().chain(&rounds.traced[i]).collect();
        let split = all
            .iter()
            .find(|p| all.iter().any(|q| q.seed == p.seed && q.hash != p.hash));
        gates.check(split.is_none(), || {
            let seed = split.map_or(0, |p| p.seed);
            let hashes: Vec<u64> = all
                .iter()
                .filter(|q| q.seed == seed)
                .map(|q| q.hash)
                .collect();
            format!("{name}: fit seed {seed:x} built different models across rounds: {hashes:x?}")
        });
    }
}

fn median_of(phases: &[Phase], f: impl Fn(&Phase) -> f64) -> f64 {
    median(&phases.iter().map(f).collect::<Vec<_>>())
}

fn mean_of(phases: &[Phase], f: impl Fn(&Phase) -> f64) -> f64 {
    phases.iter().map(f).sum::<f64>() / phases.len().max(1) as f64
}

fn phase_detail(phases: &[Phase]) -> Value {
    let mut d = Value::object();
    let walls: Vec<f64> = phases.iter().map(|p| p.wall_ms).collect();
    d.insert("rounds", phases.len())
        .insert("wall_ms_spread", relative_spread(&walls))
        .insert(
            "wall_ms",
            Value::Array(walls.iter().map(|&w| Value::from(w)).collect()),
        )
        .insert("quality", median_of(phases, |p| p.quality))
        .insert(
            "model_hashes",
            Value::Array(
                phases
                    .iter()
                    .map(|p| Value::from(format!("{:016x}", p.hash)))
                    .collect(),
            ),
        );
    d
}

/// The traced split of one phase, averaged over its traced rounds.
fn phase_split(phases: &[Phase]) -> Value {
    let mut d = Value::object();
    d.insert("wall_ms", mean_of(phases, |p| p.wall_ms))
        .insert("sanitize_ms", mean_of(phases, |p| p.sanitize_ms))
        .insert("bin_build_ms", mean_of(phases, |p| p.bin_build_ms))
        .insert(
            "member_fit_ms",
            mean_of(phases, |p| p.counters.ms(Counter::MemberFitNs)),
        )
        .insert(
            "rescore_ms",
            mean_of(phases, |p| p.counters.ms(Counter::RescoreNs)),
        )
        .insert(
            "shard_read_ms",
            mean_of(phases, |p| p.counters.ms(Counter::ShardReadNs)),
        )
        .insert("self_ms", mean_of(phases, Phase::self_ms));
    d
}

/// Per-layer metrics of the traced rounds: times are milliseconds per
/// round (one fit of each phase), counts are per round.
fn per_layer(out: &mut Vec<(&'static str, f64)>, traced: &[Vec<Phase>], kinds: &[PhaseKind]) {
    let mut totals = Snapshot::default();
    let rounds = traced[0].len() as f64;
    let mut sanitize = 0.0;
    let mut bins = 0.0;
    let (mut loop_self, mut chunked_self, mut kway_self) = (0.0, 0.0, 0.0);
    let mut members = [0.0; 3];
    let (mut chunks, mut spill) = (0.0, 0.0);
    let mut chunked_rss = Vec::new();
    for (phases, kind) in traced.iter().zip(kinds) {
        for p in phases {
            totals = totals.plus(&p.counters);
            sanitize += p.sanitize_ms;
            bins += p.bin_build_ms;
            match kind {
                PhaseKind::Binary => loop_self += p.self_ms(),
                PhaseKind::Kway => kway_self += p.self_ms(),
                PhaseKind::Chunked => {
                    chunked_self += p.self_ms();
                    chunks += p.chunks as f64;
                    spill += p.spill_bytes as f64;
                    chunked_rss.push(p.peak_rss_mb);
                }
            }
            if !matches!(kind, PhaseKind::Kway) {
                for (m, &v) in members.iter_mut().zip(&p.members) {
                    *m += v as f64;
                }
            }
        }
    }
    let per = |v: f64| v / rounds;
    let c = |k: Counter| per(totals.get(k) as f64);
    out.extend([
        ("data.sanitize_ms", per(sanitize)),
        ("data.bin_build_ms", per(bins)),
        ("data.shard_read_ms", per(totals.ms(Counter::ShardReadNs))),
        ("data.shard_bytes", c(Counter::ShardBytes)),
        ("data.chunks", per(chunks)),
        ("data.spill_bytes", per(spill)),
        (
            "learners.member_fit_ms",
            per(totals.ms(Counter::MemberFitNs)),
        ),
        ("learners.member_fits", c(Counter::MemberFits)),
        ("learners.member_fit_rows", c(Counter::MemberFitRows)),
        ("learners.rescore_ms", per(totals.ms(Counter::RescoreNs))),
        ("learners.rescore_rows", c(Counter::RescoreRows)),
        ("core.loop_self_ms", per(loop_self)),
        ("core.chunked_self_ms", per(chunked_self)),
        ("core.kway_self_ms", per(kway_self)),
        ("core.members_trained", per(members[0])),
        ("core.members_retried", per(members[1])),
        ("core.members_dropped", per(members[2])),
    ]);
    if !chunked_rss.is_empty() {
        out.push(("core.chunked_peak_rss_mb", median(&chunked_rss)));
    }
}

#[derive(Clone, Copy)]
enum PhaseKind {
    Binary,
    Kway,
    Chunked,
}

/// Median over adjacent (untraced, traced) round pairs of the traced
/// round's extra fit time, so slow drift of the machine cancels. Fit
/// time only: a traced round also makes direct calls outside any fit.
fn overhead_pct(rounds: &Rounds) -> f64 {
    let pairs: Vec<f64> = round_walls(&rounds.untraced)
        .iter()
        .zip(round_walls(&rounds.traced))
        .map(|(u, t)| (t - u) / u * 100.0)
        .collect();
    median(&pairs)
}

fn finish(
    args: &RunArgs,
    setup_s: f64,
    rounds: &Rounds,
    kinds: &[PhaseKind],
    names: &[&str],
    mut gates: Gates,
    named: &[(&str, f64)],
) -> Outcome {
    gate_hashes(&mut gates, rounds, names);
    let n_rounds = rounds.untraced[0].len() + rounds.traced[0].len();
    let mut details = Value::object();
    details.insert("setup_s", setup_s);
    for &(name, v) in named {
        details.insert(name, v);
    }
    for (i, name) in names.iter().enumerate() {
        let mut d = phase_detail(&rounds.untraced[i]);
        if args.trace {
            d.insert("traced_split", phase_split(&rounds.traced[i]));
        }
        details.insert(name, d);
    }
    let mut metrics = Vec::new();
    if args.trace {
        per_layer(&mut metrics, &rounds.traced, kinds);
        metrics.push(("trace.overhead_pct", overhead_pct(rounds)));
    } else {
        let op_ms = rounds
            .untraced
            .iter()
            .map(|p| median_of(p, |p| p.wall_ms))
            .sum();
        metrics = vec![
            ("setup_s", setup_s),
            ("op_ms", op_ms),
            ("peak_rss_mb", peak_rss_mb()),
        ];
    }
    Outcome {
        attempted: (n_rounds * names.len()) as u64,
        failed_ops: 0,
        gates,
        metrics,
        details,
        provenance: provenance(nproc(), 0, 0),
    }
}

struct BoardInputs {
    train: Dataset,
    test: Dataset,
    kway_train: Dataset,
    kway_test: Dataset,
}

pub fn fit_board(args: &RunArgs) -> Result<Outcome, String> {
    let s = |i| fork_seed(args.seed, i);
    let (setup_s, setup_spread, inputs) = timed_setup(|| {
        Ok(BoardInputs {
            train: noisy_board(BOARD_MINORITY, BOARD_MAJORITY, s(1)),
            test: noisy_board(BOARD_MINORITY, BOARD_MAJORITY, s(2)),
            kway_train: noisy_kway_board(KWAY_LARGEST, KWAY_RATIO, s(3)),
            kway_test: noisy_kway_board(KWAY_LARGEST, KWAY_RATIO, s(4)),
        })
    })?;
    // Three fit seeds: the board's binary fit takes a different path per
    // seed (AUCPRC ~0.3 to ~0.65, and fit time with it); the median over
    // rounds cycling through three paths is steadier than one path.
    let rounds = run_rounds(args, 2, &[s(5), s(6), s(7)], |traced, fit_seed| {
        let b = binary_phase(&inputs.train, &inputs.test, fit_seed, traced);
        let k = kway_phase(&inputs.kway_train, &inputs.kway_test, fit_seed, traced);
        Ok(vec![
            b.map_err(|e| e.to_string())?,
            k.map_err(|e| e.to_string())?,
        ])
    })?;
    let [bin, kway] = [&rounds.untraced[0], &rounds.untraced[1]];
    // The binary fit's AUCPRC moves between ~0.3 and ~0.65 with the fit
    // seed alone.
    let named = [
        ("fit_s", median_of(bin, |p| p.wall_ms) / 1e3),
        ("kway_fit_s", median_of(kway, |p| p.wall_ms) / 1e3),
        ("aucprc", median_of(bin, |p| p.quality)),
        ("kway_macro_f1", median_of(kway, |p| p.quality)),
    ];
    let mut out = finish(
        args,
        setup_s,
        &rounds,
        &[PhaseKind::Binary, PhaseKind::Kway],
        &["binary", "kway"],
        Gates::default(),
        &named,
    );
    out.details.insert("setup_s_spread", setup_spread);
    Ok(out)
}

struct SkewInputs {
    train: Dataset,
    test: Dataset,
}

pub fn fit_skewed(args: &RunArgs) -> Result<Outcome, String> {
    let s = |i| fork_seed(args.seed, i);
    let shards = shard_dir(&args.work_dir);
    let (setup_s, setup_spread, inputs) = timed_setup(|| {
        let train = payment_sim(SKEW_ROWS, s(1));
        let test = payment_sim(SKEW_TEST_ROWS, s(2));
        if shards.exists() {
            std::fs::remove_dir_all(&shards).map_err(|e| e.to_string())?;
        }
        pack_source(
            &mut DatasetChunks::new(&train, SHARD_ROWS),
            &shards,
            SHARD_ROWS,
        )
        .map_err(|e| e.to_string())?;
        Ok(SkewInputs { train, test })
    })?;
    let rounds = run_rounds(args, 2, &[s(5)], |traced, fit_seed| {
        let b = binary_phase(&inputs.train, &inputs.test, fit_seed, traced)
            .map_err(|e| e.to_string())?;
        let c = chunked_phase(&args.work_dir, &inputs.test, fit_seed, traced)?;
        Ok(vec![b, c])
    })?;
    let [bin, chunked] = [&rounds.untraced[0], &rounds.untraced[1]];
    let mut gates = Gates::default();
    let (mem_auc, ooc_auc) = (
        median_of(bin, |p| p.quality),
        median_of(chunked, |p| p.quality),
    );
    gates.check(
        mem_auc - ooc_auc <= CHUNKED_AUCPRC_TOLERANCE,
        || {
            format!(
                "chunked AUCPRC {ooc_auc} is more than {CHUNKED_AUCPRC_TOLERANCE} below in-memory {mem_auc}"
            )
        },
    );
    let named = [
        ("fit_s", median_of(bin, |p| p.wall_ms) / 1e3),
        ("chunked_fit_s", median_of(chunked, |p| p.wall_ms) / 1e3),
        ("aucprc", mem_auc),
        ("chunked_aucprc", ooc_auc),
        ("chunked_aucprc_gap", ooc_auc - mem_auc),
        ("chunked_peak_rss_mb", median_of(chunked, |p| p.peak_rss_mb)),
    ];
    let mut out = finish(
        args,
        setup_s,
        &rounds,
        &[PhaseKind::Binary, PhaseKind::Chunked],
        &["binary", "chunked"],
        gates,
        &named,
    );
    out.details.insert("setup_s_spread", setup_spread);
    Ok(out)
}
