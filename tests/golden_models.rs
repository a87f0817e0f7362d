//! Golden model hashes: fixed-seed histogram-tree SPE fits must keep
//! producing byte-identical persisted snapshots.
//!
//! Each case fits a model, encodes its snapshot in a model envelope and
//! pins the FNV-1a hash of those bytes. The pinned values were taken
//! before the self-paced round moved to row-parallel bin-space
//! rescoring; any change to how a round selects, trains or rescores
//! that alters a single bit of any model fails here. The fits run under
//! two threads so the row-parallel kernels are exercised.

use spe::core::{
    AlphaSchedule, ChunkedFitOptions, HardnessFn, MultiClassSpeConfig, SelfPacedEnsembleConfig,
};
use spe::data::{Dataset, DatasetChunks, Matrix, SeededRng};
use spe::datasets::{multiclass_checkerboard, MultiClassCheckerboardConfig};
use spe::learners::{DecisionTreeConfig, Model, SharedLearner, SplitMethod};
use spe::runtime::Runtime;
use spe::serve::envelope::fnv1a;
use spe::serve::ModelEnvelope;
use std::sync::Arc;

/// Hash of the persisted snapshot bytes of `model`.
fn model_hash(model: &dyn Model) -> u64 {
    let snapshot = model.snapshot().expect("SPE models are snapshottable");
    fnv1a(&ModelEnvelope::new(snapshot, Vec::new()).encode())
}

fn hist_base() -> SharedLearner {
    Arc::new(DecisionTreeConfig {
        split_method: SplitMethod::Histogram,
        ..DecisionTreeConfig::default()
    })
}

fn cfg(n: usize) -> SelfPacedEnsembleConfig {
    SelfPacedEnsembleConfig {
        runtime: Runtime::with_threads(2),
        ..SelfPacedEnsembleConfig::with_base(n, hist_base())
    }
}

/// Overlapping classes at IR 25 with one continuous, one coarsely
/// rounded (heavily repeated) and one two-valued feature.
fn skewed(n_pos: usize, n_neg: usize, seed: u64) -> Dataset {
    let mut rng = SeededRng::new(seed);
    let mut x = Matrix::with_capacity(n_pos + n_neg, 3);
    let mut y = Vec::with_capacity(n_pos + n_neg);
    for i in 0..n_pos + n_neg {
        let pos = i >= n_neg;
        let shift = if pos { 1.1 } else { 0.0 };
        x.push_row(&[
            rng.normal(shift, 1.0),
            (rng.normal(shift, 1.0) * 2.0).round() / 2.0,
            f64::from(u8::from(rng.uniform() < if pos { 0.6 } else { 0.3 })),
        ]);
        y.push(u8::from(pos));
    }
    Dataset::new(x, y)
}

#[test]
fn in_memory_binary_fits_are_pinned() {
    let data = skewed(160, 4000, 1);
    let self_paced = cfg(12).try_fit_dataset(&data, 7).unwrap();
    let uniform = SelfPacedEnsembleConfig {
        alpha_schedule: AlphaSchedule::Uniform,
        ..cfg(8)
    }
    .try_fit_dataset(&data, 8)
    .unwrap();
    let cross_entropy = SelfPacedEnsembleConfig {
        hardness: HardnessFn::CrossEntropy,
        k_bins: 7,
        ..cfg(8)
    }
    .try_fit_dataset(&data, 9)
    .unwrap();
    assert_eq!(
        [
            model_hash(&self_paced),
            model_hash(&uniform),
            model_hash(&cross_entropy)
        ],
        [
            9570211880993390251,
            15545575385834728534,
            1462286050377235481
        ]
    );
}

#[test]
fn warm_start_fit_is_pinned() {
    let data = skewed(120, 3000, 2);
    let incumbent = cfg(6).try_fit_dataset(&data, 11).unwrap();
    let live = incumbent.predict_proba(data.x());
    let warm = cfg(10).try_fit_dataset_warm(&data, 12, &live).unwrap();
    assert_eq!(model_hash(&warm), 16741501812469115241);
}

#[test]
fn out_of_core_fit_is_pinned() {
    let data = skewed(150, 3500, 3);
    let mut src = DatasetChunks::new(&data, 611);
    let (model, _) = cfg(10)
        .try_fit_chunked(&mut src, &ChunkedFitOptions::default(), 13)
        .unwrap();
    assert_eq!(model_hash(&model), 7629035047864620569);
}

#[test]
fn one_vs_rest_fit_is_pinned() {
    let data = multiclass_checkerboard(&MultiClassCheckerboardConfig::geometric(4, 2400, 3.0), 4);
    let model = MultiClassSpeConfig {
        binary: cfg(6),
        ..MultiClassSpeConfig::default()
    }
    .try_fit_dataset(&data, 14)
    .unwrap();
    assert_eq!(model_hash(&model), 11102120135559519133);
}

#[test]
fn traced_and_untraced_fits_agree() {
    let data = skewed(100, 2500, 5);
    let spe = cfg(9);
    let plain = spe.try_fit_dataset(&data, 15).unwrap();
    let (traced, trace) = spe.try_fit_dataset_traced(&data, 15).unwrap();
    assert_eq!(model_hash(&plain), model_hash(&traced));
    // One selection per member, one hardness vector per self-paced
    // member (every member after the random first one).
    assert_eq!(trace.selections.len(), 9);
    assert_eq!(trace.hardness.len(), 8);
    assert_eq!(trace.majority_rows.len(), 2500);
    assert!(trace.hardness.iter().all(|h| h.len() == 2500));
}
