//! Out-of-core training benchmark: a 50-member SPE fit on a synthetic
//! stream whose dense form is ≥ 10x the configured chunk budget, so the
//! fit *cannot* materialize the data. Asserts the memory claim (peak
//! RSS under 2x the chunk budget) and records AUCPRC on a held-out
//! draw; results merge into `BENCH_train.json` as an `oocore` section.
//!
//! ```sh
//! cargo run --release -p spe-bench --bin bench_oocore             # full
//! cargo run --release -p spe-bench --bin bench_oocore -- --smoke  # CI gate
//! ```
//!
//! Full mode defaults to 2.5M x 30 rows (≈ 600 MB dense) against a
//! 56 MiB budget (a 10.2x beyond-RAM ratio). The paper-scale target:
//! `--rows 50000000 --budget-mb 1200` streams 50M x 30 (≈ 12 GB dense)
//! with the same 10x headroom. `--smoke` instead checks *quality*: a
//! small stream is fit both out-of-core (with an artificially tiny
//! budget, forcing many chunks and a real spill) and in memory on the
//! materialized equivalent, and the held-out AUCPRC of the two models
//! must agree within 0.005 — the sketch grid must not cost accuracy.
//! A passing smoke run merges its own `oocore` section (marked
//! `"smoke": true`) into `BENCH_train.json` in the working directory,
//! so run it from a temp dir.

use spe_bench::harness::{merge_bench_section, peak_rss_bytes};
use spe_core::{chunk_rows_for_budget, ChunkedFitOptions, SelfPacedEnsembleConfig};
use spe_datasets::{StreamConfig, SyntheticStream};
use spe_learners::traits::{Model, SharedLearner};
use spe_learners::{DecisionTreeConfig, SplitMethod};
use spe_metrics::aucprc;
use std::sync::Arc;
use std::time::Instant;

const TRAIN_SEED: u64 = 11;
const TEST_SEED: u64 = 12;
const FIT_SEED: u64 = 42;

struct Opts {
    smoke: bool,
    rows: u64,
    features: usize,
    budget_mb: usize,
    members: usize,
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        smoke: false,
        rows: 2_500_000,
        features: 30,
        budget_mb: 56,
        members: 50,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| {
            it.next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{name} needs an integer"))
        };
        match a.as_str() {
            "--smoke" => o.smoke = true,
            "--rows" => o.rows = num("--rows")?,
            "--features" => o.features = num("--features")? as usize,
            "--budget-mb" => o.budget_mb = num("--budget-mb")? as usize,
            "--members" => o.members = num("--members")? as usize,
            other => {
                return Err(format!(
                    "unknown argument {other}; supported: --smoke --rows N --features N --budget-mb N --members N"
                ))
            }
        }
    }
    Ok(o)
}

fn hist_base() -> SharedLearner {
    Arc::new(DecisionTreeConfig {
        max_depth: 10,
        min_samples_leaf: 16,
        split_method: SplitMethod::Histogram,
        ..DecisionTreeConfig::default()
    })
}

fn stream_cfg(rows: u64, features: usize, minority: f64, chunk_rows: usize) -> StreamConfig {
    StreamConfig {
        rows,
        features,
        minority_fraction: minority,
        chunk_rows,
        ..StreamConfig::default()
    }
}

/// Quality gate: out-of-core and in-memory fits of the same small data
/// must land within 0.005 AUCPRC of each other on a held-out draw.
fn smoke() -> Result<(), Box<dyn std::error::Error>> {
    let budget_bytes = 1 << 20; // 1 MiB: tiny, to force many chunks.
    let features = 10;
    let chunk_rows = chunk_rows_for_budget(budget_bytes, features);
    // 5% minority: enough positives (~1000) that both fits converge to
    // a well-determined model — the gate measures grid drift, not the
    // variance of starved trees.
    let cfg = stream_cfg(20_000, features, 0.05, chunk_rows);
    let mut stream = SyntheticStream::new(cfg, TRAIN_SEED);
    let spe_cfg = SelfPacedEnsembleConfig::with_base(10, hist_base());

    eprintln!(
        "bench_oocore --smoke: {} rows x {features}, {} rows/chunk",
        cfg.rows, chunk_rows
    );
    // Capacity >= rows makes the sketch exact, so the remaining delta
    // isolates the streaming machinery (chunking, spill, bin-space
    // scoring) from sketch compaction noise — at 20k rows a compacted
    // grid shifts individual tree splits enough to move AUCPRC ~0.01
    // in either direction, which is member variance, not quality loss.
    // The compaction error bound itself is property-tested separately.
    let opts = ChunkedFitOptions {
        sketch_capacity: 32_768,
        ..ChunkedFitOptions::default()
    };
    let t0 = Instant::now();
    let (ooc_model, report) = spe_cfg.try_fit_chunked(&mut stream, &opts, FIT_SEED)?;
    let fit_seconds = t0.elapsed().as_secs_f64();
    let peak_rss = peak_rss_bytes();
    assert!(
        report.chunks >= 4,
        "smoke budget must force a multi-chunk fit, got {} chunks",
        report.chunks
    );
    assert!(report.spill_bytes > 0, "smoke fit must exercise the spill");

    let train = SyntheticStream::materialize(cfg, TRAIN_SEED);
    let mem_model = spe_cfg.try_fit_dataset(&train, FIT_SEED)?;

    let test =
        SyntheticStream::materialize(stream_cfg(10_000, features, 0.05, chunk_rows), TEST_SEED);
    let ooc_auc = aucprc(test.y(), &ooc_model.predict_proba(test.x()));
    let mem_auc = aucprc(test.y(), &mem_model.predict_proba(test.x()));
    let delta = (ooc_auc - mem_auc).abs();
    eprintln!(
        "  out-of-core AUCPRC {ooc_auc:.4} vs in-memory {mem_auc:.4} (delta {delta:.4}, {} chunks, {} spill bytes)",
        report.chunks, report.spill_bytes
    );
    if delta > 0.005 {
        eprintln!("FAIL: out-of-core AUCPRC drifted more than 0.005 from the in-memory fit");
        std::process::exit(1);
    }
    // Written only once the gate has passed, so the section's presence
    // in the working directory's ledger is the gate's verdict.
    let section = format!(
        "{{\n    \"smoke\": true,\n    \"rows\": {},\n    \"features\": {features},\n    \"members\": {},\n    \"chunk_budget_bytes\": {budget_bytes},\n    \"chunk_rows\": {chunk_rows},\n    \"fit_seconds\": {fit_seconds:.2},\n    \"peak_rss_bytes\": {peak_rss},\n    \"rss_budget_ratio\": {:.3},\n    \"chunks\": {},\n    \"spill_bytes\": {},\n    \"aucprc\": {ooc_auc:.6},\n    \"in_memory_aucprc\": {mem_auc:.6},\n    \"aucprc_delta\": {delta:.6}\n  }}",
        report.rows,
        ooc_model.len(),
        peak_rss as f64 / budget_bytes as f64,
        report.chunks,
        report.spill_bytes,
    );
    let out = std::path::Path::new("BENCH_train.json");
    merge_bench_section(out, "oocore", &section)?;
    eprintln!("smoke OK -> {} (oocore section)", out.display());
    Ok(())
}

fn full(o: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let budget_bytes = o.budget_mb * (1 << 20);
    let chunk_rows = chunk_rows_for_budget(budget_bytes, o.features);
    let dense_bytes = o.rows * o.features as u64 * 8;
    let ratio = dense_bytes as f64 / budget_bytes as f64;
    assert!(
        ratio >= 10.0,
        "full mode must be beyond-RAM: dense/budget ratio {ratio:.1} < 10 \
         (raise --rows or lower --budget-mb)"
    );
    let cfg = stream_cfg(o.rows, o.features, 0.01, chunk_rows);
    let mut stream = SyntheticStream::new(cfg, TRAIN_SEED);
    let spe_cfg = SelfPacedEnsembleConfig::with_base(o.members, hist_base());
    eprintln!(
        "bench_oocore: {} rows x {} (dense {:.0} MiB, {ratio:.1}x the {} MiB budget), {} members, {} rows/chunk",
        o.rows,
        o.features,
        dense_bytes as f64 / (1024.0 * 1024.0),
        o.budget_mb,
        o.members,
        chunk_rows
    );

    let t0 = Instant::now();
    let (model, report) =
        spe_cfg.try_fit_chunked(&mut stream, &ChunkedFitOptions::default(), FIT_SEED)?;
    let fit_seconds = t0.elapsed().as_secs_f64();
    // Read the high-water mark before the held-out set is materialized:
    // the claim under test is the *fit's* footprint.
    let peak_rss = peak_rss_bytes();
    let rss_ratio = peak_rss as f64 / budget_bytes as f64;
    eprintln!(
        "  fit {} members in {fit_seconds:.1}s over {} chunks ({} spill bytes); peak RSS {:.1} MiB = {rss_ratio:.2}x budget",
        model.len(),
        report.chunks,
        report.spill_bytes,
        peak_rss as f64 / (1024.0 * 1024.0)
    );
    assert!(
        peak_rss == 0 || peak_rss < 2 * budget_bytes as u64,
        "peak RSS {peak_rss} exceeds 2x the {budget_bytes}-byte chunk budget"
    );

    let test =
        SyntheticStream::materialize(stream_cfg(50_000, o.features, 0.01, chunk_rows), TEST_SEED);
    let auc = aucprc(test.y(), &model.predict_proba(test.x()));
    eprintln!("  held-out AUCPRC {auc:.4} on {} rows", test.len());

    let section = format!(
        "{{\n    \"rows\": {},\n    \"features\": {},\n    \"members\": {},\n    \"chunk_budget_bytes\": {budget_bytes},\n    \"chunk_rows\": {chunk_rows},\n    \"dense_bytes\": {dense_bytes},\n    \"beyond_ram_ratio\": {ratio:.2},\n    \"fit_seconds\": {fit_seconds:.2},\n    \"peak_rss_bytes\": {peak_rss},\n    \"rss_budget_ratio\": {rss_ratio:.3},\n    \"chunks\": {},\n    \"spill_bytes\": {},\n    \"n_minority\": {},\n    \"max_rank_error\": {:.6},\n    \"aucprc\": {auc:.6}\n  }}",
        report.rows,
        o.features,
        model.len(),
        report.chunks,
        report.spill_bytes,
        report.n_minority,
        report.max_rank_error
    );
    let out = std::path::Path::new("BENCH_train.json");
    merge_bench_section(out, "oocore", &section)?;
    eprintln!("-> {} (oocore section)", out.display());
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = parse_opts().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if opts.smoke {
        smoke()
    } else {
        full(&opts)
    }
}
