//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a detail line and, last, the result object. Exits 1 when a
//! correctness gate fails and 2 on bad arguments or a run error.

use perfbench::{report, run, RunArgs};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <fit_board|fit_skewed|serve_small|serve_bulk> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Cli {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run the out-of-core phase in this process, on the
    /// shards in the given scratch directory.
    chunked_child: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        chunked_child: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = value()?,
            "--seed" => cli.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|_| "--seconds wants an integer")?;
                if cli.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--chunked-child" => cli.chunked_child = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workload.is_empty() && cli.chunked_child.is_none() {
        return Err("--workload is required".into());
    }
    Ok(cli)
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &cli.chunked_child {
        return match perfbench::fit::chunked_child(dir, cli.seed, cli.trace) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench chunked phase: {e}");
                ExitCode::from(2)
            }
        };
    }
    let work_dir = Path::new(".perfbench_work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let scratch = Scratch(work_dir.clone());
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds as f64,
        trace: cli.trace,
        work_dir,
    };
    let outcome = run(&cli.workload, &args);
    drop(scratch);
    let _ = std::fs::remove_dir(".perfbench_work");
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cli.workload);
            return ExitCode::from(2);
        }
    };
    match report::lines(&cli.workload, cli.seed, cli.trace, &outcome) {
        Ok([detail, result]) => {
            println!("{detail}");
            println!("{result}");
        }
        Err(e) => {
            eprintln!("perfbench: cannot render the result: {e}");
            return ExitCode::from(2);
        }
    }
    for v in &outcome.gates.violations {
        eprintln!("perfbench: correctness gate failed: {v}");
    }
    if outcome.gates.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
