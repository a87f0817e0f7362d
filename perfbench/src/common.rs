//! Shared pieces: input generators, model hashing, resident memory and
//! the provenance block every output carries.

use crate::json::Value;
use spe_core::SelfPacedEnsembleConfig;
use spe_data::{Dataset, Matrix, SeededRng};
use spe_datasets::{
    checkerboard, multiclass_checkerboard, CheckerboardConfig, MultiClassCheckerboardConfig,
};
use spe_learners::traits::{Model, SharedLearner};
use spe_learners::{DecisionTreeConfig, SplitMethod};
use spe_runtime::Runtime;
use spe_serve::{fnv1a, ModelEnvelope};
use std::sync::Arc;

/// Set-ups per run; `setup_s` is their median. Set-up is short and
/// noisy (the first one also spawns the thread pool), so it is repeated
/// more often than a measured round.
pub const SETUP_REPS: usize = 5;
/// Members per ensemble in every workload.
const MEMBERS: usize = 50;
/// Width of every generated row: two informative checkerboard
/// coordinates plus eight standard-normal noise features.
pub const WIDTH: usize = 10;
/// Classes of every k-way model.
pub const K_CLASSES: usize = 4;

/// Threads the machine offers; fits, server workers and client
/// connections are all sized from it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The histogram decision tree every workload trains.
/// `min_samples_leaf` keeps deep trees from shattering the noise
/// features sample by sample.
pub fn hist_tree() -> SharedLearner {
    Arc::new(DecisionTreeConfig {
        max_depth: 10,
        min_samples_leaf: 16,
        split_method: SplitMethod::Histogram,
        ..DecisionTreeConfig::default()
    })
}

/// A 50-member SPE over `base` on `nproc()` threads.
pub fn spe_config(base: SharedLearner) -> SelfPacedEnsembleConfig {
    SelfPacedEnsembleConfig {
        runtime: Runtime::with_threads(nproc()),
        ..SelfPacedEnsembleConfig::with_base(MEMBERS, base)
    }
}

/// Appends `WIDTH - cols` standard-normal noise columns to `data`.
fn with_noise(data: Dataset, seed: u64) -> Dataset {
    let extra = WIDTH - data.n_features();
    let mut rng = SeededRng::new(seed ^ 0x5EED);
    let mut x = Matrix::with_capacity(data.len(), WIDTH);
    let mut row = Vec::with_capacity(WIDTH);
    for base in data.x().iter_rows() {
        row.clear();
        row.extend_from_slice(base);
        row.extend((0..extra).map(|_| rng.normal(0.0, 1.0)));
        x.push_row(&row);
    }
    data.with_x(x)
}

/// The binary noisy checkerboard (4×4 grid, covariance 0.1).
pub fn noisy_board(n_minority: usize, n_majority: usize, seed: u64) -> Dataset {
    let base = checkerboard(
        &CheckerboardConfig {
            grid: 4,
            n_minority,
            n_majority,
            cov: 0.1,
        },
        seed,
    );
    with_noise(base, seed)
}

/// The 4-class noisy checkerboard with geometric class sizes: class
/// `c` has `n_largest / ratio^c` rows.
pub fn noisy_kway_board(n_largest: usize, ratio: f64, seed: u64) -> Dataset {
    let cfg = MultiClassCheckerboardConfig::geometric(K_CLASSES, n_largest, ratio);
    with_noise(multiclass_checkerboard(&cfg, seed), seed)
}

/// FNV-1a hash of the model's persisted snapshot bytes: equal hashes
/// mean bit-identical models.
pub fn model_hash(model: &dyn Model) -> Option<u64> {
    let snapshot = model.snapshot()?;
    Some(fnv1a(&ModelEnvelope::new(snapshot, Vec::new()).encode()))
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git(args: &[&str]) -> Option<String> {
    std::process::Command::new("git")
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
}

/// The commit being measured when the working directory is the root
/// of a git checkout (not merely somewhere inside another repository),
/// else "unknown". `source_digest` identifies the sources either way.
fn commit() -> String {
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let top = git(&["rev-parse", "--show-toplevel"])
        .and_then(|t| std::path::Path::new(&t).canonicalize().ok());
    match (here, top) {
        (Some(h), Some(t)) if h == t => git(&["rev-parse", "HEAD"]),
        _ => None,
    }
    .unwrap_or_else(|| "unknown".into())
}

/// Where and how the numbers were produced.
pub fn provenance(fit_threads: usize, server_workers: usize, client_threads: usize) -> Value {
    let mut p = Value::object();
    p.insert("commit", commit())
        .insert("source_digest", env!("PERFBENCH_SOURCE_DIGEST"))
        .insert("nproc", nproc())
        .insert("cpu_model", cpu_model())
        .insert("rustflags", env!("PERFBENCH_RUSTFLAGS"))
        .insert("rustc", env!("PERFBENCH_RUSTC"))
        .insert("profile", env!("PERFBENCH_PROFILE"))
        .insert("fit_threads", fit_threads)
        .insert("server_workers", server_workers)
        .insert("client_threads", client_threads);
    p
}
