//! Fig. 3: how the self-paced factor α shapes the under-sampled majority
//! subset on the Payment Simulation dataset.
//!
//! For the original majority set and for subsets drawn at α = 0,
//! α = 0.1 and α → ∞, prints the per-bin population and hardness
//! contribution (the paper's paired log-scale bar charts).
//!
//! ```sh
//! cargo run --release -p spe-bench --bin fig3
//! ```

use spe_bench::harness::{Args, ExperimentTable};
use spe_core::{HardnessBins, SelfPacedEnsembleConfig, SelfPacedSampler};
use spe_data::{train_val_test_split, SeededRng};
use spe_datasets::payment_sim;
use spe_learners::DecisionTreeConfig;
use std::sync::Arc;

fn main() {
    let args = Args::parse(1);
    let k = 20;
    let data = payment_sim(args.sized(150_000), 11);
    let split = train_val_test_split(&data, 0.6, 0.2, 11);

    // Hardness w.r.t. a trained SPE ensemble (the trace records the
    // hardness used at the last self-paced iteration).
    let cfg = SelfPacedEnsembleConfig::with_base(10, Arc::new(DecisionTreeConfig::with_depth(10)));
    let (_, trace) = cfg.fit_dataset_traced(&split.train, 11);
    let hardness = trace.hardness.last().expect("trace has iterations").clone();
    let n_pos = split.train.n_positive();

    let mut table = ExperimentTable::new("fig3", &["Subset", "Bin", "Population", "Contribution"]);

    // (a) Original majority set.
    let bins = HardnessBins::cut(&hardness, k);
    for (b, s) in bins.stats().iter().enumerate() {
        table.push_row(vec![
            "original".into(),
            format!("{b}"),
            format!("{}", s.population),
            format!("{:.4}", s.contribution),
        ]);
    }

    // (b)(c)(d) Self-paced subsets at the paper's three α values.
    let sampler = SelfPacedSampler { k_bins: k };
    for (name, alpha) in [("alpha=0", 0.0), ("alpha=0.1", 0.1), ("alpha=inf", 1e12)] {
        let mut rng = SeededRng::new(11);
        let outcome = sampler.sample(&hardness, alpha, n_pos, &mut rng);
        let sub: Vec<f64> = outcome.selected.iter().map(|&i| hardness[i]).collect();
        // Bin the subset with the *same* bin edges by reusing the cut
        // over the full range (subset values are a subset of hardness).
        let mut pop = vec![0usize; k];
        let mut contrib = vec![0.0; k];
        for &h in &sub {
            let b = bins.bin_of(h);
            pop[b] += 1;
            contrib[b] += h;
        }
        for b in 0..k {
            table.push_row(vec![
                name.into(),
                format!("{b}"),
                format!("{}", pop[b]),
                format!("{:.4}", contrib[b]),
            ]);
        }
        println!(
            "{name}: selected {} of {} majority samples",
            sub.len(),
            hardness.len()
        );
    }

    table.finish("Fig. 3: self-paced under-sampling vs alpha (payment sim)");
}
