//! The repository benchmark: four fixed workloads, end-to-end metrics
//! per workload, and an outside-in per-layer trace. See `README.md`.

pub mod common;
pub mod fit;
pub mod json;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["fit_board", "fit_skewed", "serve_small", "serve_bulk"];

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    /// Measurement time; set-up comes on top.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed after the run.
    pub work_dir: PathBuf,
}

/// Runs workload `name`.
pub fn run(name: &str, args: &RunArgs) -> Result<report::Outcome, String> {
    match name {
        "fit_board" => fit::fit_board(args),
        "fit_skewed" => fit::fit_skewed(args),
        "serve_small" => serve::serve_small(args),
        "serve_bulk" => serve::serve_bulk(args),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}
