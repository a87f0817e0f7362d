//! `SelfPacedEnsemble` — Algorithm 1 of the paper.

use crate::hardness::HardnessFn;
use crate::report::FitReport;
use crate::round::Rounds;
use crate::sampler::AlphaSchedule;
use spe_data::{
    BinIndex, BinaryIndex, Dataset, Matrix, MatrixView, SanitizePolicy, Sanitizer, SeededRng,
    SpeError,
};
use spe_learners::binscore::CodeScorer;
use spe_learners::ensemble::SoftVoteEnsemble;
use spe_learners::persist::ModelSnapshot;
use spe_learners::traits::{
    validate_fit_inputs, BinnedLearner, BinnedProblem, FeatureBound, Learner, Model, SharedLearner,
};
use spe_learners::DecisionTreeConfig;
use spe_runtime::{Runtime, TrainingBudget};
use std::sync::Arc;

/// Configuration for a Self-paced Ensemble.
///
/// Defaults follow the paper: `k = 20` bins, absolute-error hardness,
/// 10 base classifiers, C4.5-style trees as the base learner.
///
/// Prefer [`SelfPacedEnsembleConfig::builder`] for constructing custom
/// configurations — it validates at `build()` time and returns
/// [`SpeError::InvalidConfig`] instead of panicking during `fit`.
#[derive(Clone)]
pub struct SelfPacedEnsembleConfig {
    /// Number of base classifiers `n`.
    pub n_estimators: usize,
    /// Number of hardness bins `k` (paper default 20).
    pub k_bins: usize,
    /// Hardness function `H` (paper default: absolute error).
    pub hardness: HardnessFn,
    /// Base learner `f`.
    pub base: SharedLearner,
    /// α schedule (paper default: `tan(iπ/2n)`); the other variants are
    /// ablations, see [`AlphaSchedule`].
    pub alpha_schedule: AlphaSchedule,
    /// Parallelism config installed for the duration of each fit (the
    /// default defers to `SPE_THREADS` / hardware parallelism).
    pub runtime: Runtime,
    /// How [`Self::try_fit_dataset`] handles non-finite feature values
    /// before training (default: reject with a typed error).
    pub sanitize: SanitizePolicy,
    /// Extra fit attempts (with freshly derived seeds) granted to a
    /// member whose base-learner fit panics or emits non-finite
    /// probabilities, before the member is dropped (default 2).
    pub max_member_retries: usize,
    /// Minimum members that must train for the fit to succeed; fewer
    /// yields [`SpeError::TrainingFailed`] (default 1, floored at 1).
    pub min_members: usize,
    /// Cooperative wall-clock budget installed for the duration of each
    /// fit (default: unlimited). When the deadline passes, remaining
    /// member slots are skipped and iterative base learners cut their
    /// internal loops short.
    pub budget: TrainingBudget,
}

impl std::fmt::Debug for SelfPacedEnsembleConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelfPacedEnsembleConfig")
            .field("n_estimators", &self.n_estimators)
            .field("k_bins", &self.k_bins)
            .field("hardness", &self.hardness)
            .field("base", &self.base.name())
            .field("runtime", &self.runtime)
            .field("sanitize", &self.sanitize)
            .field("max_member_retries", &self.max_member_retries)
            .field("min_members", &self.min_members)
            .field("budget", &self.budget)
            .finish()
    }
}

impl Default for SelfPacedEnsembleConfig {
    fn default() -> Self {
        Self {
            n_estimators: 10,
            k_bins: 20,
            hardness: HardnessFn::AbsoluteError,
            base: Arc::new(DecisionTreeConfig::default()),
            alpha_schedule: AlphaSchedule::SelfPaced,
            runtime: Runtime::default(),
            sanitize: SanitizePolicy::Reject,
            max_member_retries: 2,
            min_members: 1,
            budget: TrainingBudget::unlimited(),
        }
    }
}

impl SelfPacedEnsembleConfig {
    /// SPE with `n` members over the default tree base learner.
    pub fn new(n_estimators: usize) -> Self {
        Self {
            n_estimators,
            ..Self::default()
        }
    }

    /// SPE with `n` members over a custom base learner.
    pub fn with_base(n_estimators: usize, base: SharedLearner) -> Self {
        Self {
            n_estimators,
            base,
            ..Self::default()
        }
    }

    /// Starts a [builder](crate::builder::SelfPacedEnsembleBuilder) for
    /// a validated custom configuration.
    pub fn builder() -> crate::builder::SelfPacedEnsembleBuilder {
        crate::builder::SelfPacedEnsembleBuilder::new()
    }

    /// Trains the ensemble (Algorithm 1). Returns the trained model with
    /// its per-iteration diagnostics.
    ///
    /// # Panics
    /// Panics on the conditions [`Self::try_fit_dataset`] reports as
    /// errors (invalid config, single-class data); the panic message is
    /// the error's `Display` output.
    pub fn fit_dataset(&self, data: &Dataset, seed: u64) -> SelfPacedEnsemble {
        self.try_fit_dataset(data, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Self::fit_dataset`] but panicking-free: returns
    /// [`SpeError`] when the configuration or data cannot be trained on.
    pub fn try_fit_dataset(
        &self,
        data: &Dataset,
        seed: u64,
    ) -> Result<SelfPacedEnsemble, SpeError> {
        self.try_fit_inner(data, seed, None, None)
    }

    /// Warm-started refit: like [`Self::try_fit_dataset`], but the
    /// *first* member already samples self-paced, using hardness
    /// computed from `live_proba` — the live (incumbent) model's
    /// positive-class probabilities for every row of `data`, in row
    /// order — instead of falling back to uniform random
    /// under-sampling. This is the online-retraining entry point: when
    /// a drifted window is refit, the rows the incumbent now gets wrong
    /// are exactly the ones the first member should concentrate on, so
    /// the candidate starts adapting one full round earlier.
    ///
    /// `live_proba` must be finite, in `data` row order, and cover
    /// every row; a sanitizer policy that drops rows
    /// ([`SanitizePolicy::DropRows`]) would desynchronize the two and
    /// is rejected with [`SpeError::InvalidConfig`]. Later members
    /// recompute hardness against the *new* ensemble exactly as in the
    /// cold fit — the incumbent seeds the first selection and is never
    /// a voting member of the refit ensemble.
    pub fn try_fit_dataset_warm(
        &self,
        data: &Dataset,
        seed: u64,
        live_proba: &[f64],
    ) -> Result<SelfPacedEnsemble, SpeError> {
        if live_proba.len() != data.len() {
            return Err(SpeError::DimensionMismatch {
                what: "warm probability/row",
                expected: data.len(),
                got: live_proba.len(),
            });
        }
        if !live_proba.iter().all(|p| p.is_finite()) {
            return Err(SpeError::NonFiniteOutput {
                context: "warm-start probabilities".into(),
            });
        }
        if matches!(self.sanitize, SanitizePolicy::DropRows) {
            return Err(SpeError::InvalidConfig(
                "warm-start fits cannot use SanitizePolicy::DropRows: dropped rows would \
                 desynchronize the live probabilities from the training rows"
                    .into(),
            ));
        }
        self.try_fit_inner(data, seed, Some(live_proba), None)
    }

    /// Like [`Self::fit_dataset`], additionally returning the
    /// per-iteration under-sampling trace (which majority rows each
    /// member trained on, and their hardness) — used by the Fig. 3 and
    /// Fig. 6 experiments. Only the `*_traced` entry points record a
    /// trace; the others never pay for the copies.
    ///
    /// # Panics
    /// Same conditions as [`Self::fit_dataset`].
    pub fn fit_dataset_traced(&self, data: &Dataset, seed: u64) -> (SelfPacedEnsemble, FitTrace) {
        self.try_fit_dataset_traced(data, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`Self::fit_dataset_traced`]: validates
    /// configuration, sanitizes the input per [`Self::sanitize`], then
    /// runs Algorithm 1 with this config's [`Runtime`] and
    /// [`TrainingBudget`] installed and per-member fault isolation.
    pub fn try_fit_dataset_traced(
        &self,
        data: &Dataset,
        seed: u64,
    ) -> Result<(SelfPacedEnsemble, FitTrace), SpeError> {
        let mut trace = FitTrace::default();
        let model = self.try_fit_inner(data, seed, None, Some(&mut trace))?;
        Ok((model, trace))
    }

    /// Shared validated entry for cold and warm fits. `warm`, when
    /// present, holds the live model's probabilities per `data` row and
    /// drives the first member's self-paced selection; `None` is the
    /// cold path, bit-identical to the original algorithm. `trace`,
    /// when present, receives the per-iteration record.
    fn try_fit_inner(
        &self,
        data: &Dataset,
        seed: u64,
        warm: Option<&[f64]>,
        trace: Option<&mut FitTrace>,
    ) -> Result<SelfPacedEnsemble, SpeError> {
        self.validate()?;
        if data.is_empty() {
            return Err(SpeError::EmptyDataset);
        }

        // The sanitizer rejects/repairs non-finite features and surfaces
        // missing classes as typed errors (no policy can repair those).
        let (clean, sanitize_report) = Sanitizer::new(self.sanitize).sanitize(data)?;

        // A row-dropping sanitizer would desynchronize `warm` from the
        // cleaned rows; `try_fit_dataset_warm` rejects that policy up
        // front, so equality can only break on an internal invariant.
        debug_assert!(
            warm.is_none() || clean.len() == data.len(),
            "sanitizer changed row count under a warm-start fit"
        );

        self.runtime.install(|| {
            self.budget.install(|| {
                self.fit_validated(
                    clean.x(),
                    clean.y(),
                    None,
                    seed,
                    sanitize_report,
                    warm,
                    trace,
                )
            })
        })
    }

    /// The configuration checks every fit entry runs before touching
    /// data.
    pub(crate) fn validate(&self) -> Result<(), SpeError> {
        if self.n_estimators == 0 {
            return Err(SpeError::InvalidConfig(
                "need at least one estimator".into(),
            ));
        }
        if self.k_bins == 0 {
            return Err(SpeError::InvalidConfig("need at least one bin".into()));
        }
        if self.min_members > self.n_estimators {
            return Err(SpeError::InvalidConfig(format!(
                "min_members ({}) exceeds n_estimators ({})",
                self.min_members, self.n_estimators
            )));
        }
        Ok(())
    }

    /// The bin-space learner and its bin cap when a fit with `n_pos`
    /// minority and `n_neg` majority rows takes the histogram fast path:
    /// the base learner trains on a shared bin index and each member's
    /// training set (`|P| + min(|P|, |N|)` rows) is large enough to
    /// amortize quantization.
    pub(crate) fn binned_path(
        &self,
        n_pos: usize,
        n_neg: usize,
    ) -> Option<(&dyn BinnedLearner, usize)> {
        let learner = self.base.as_binned()?;
        let req = learner.bin_request()?;
        (n_pos + n_pos.min(n_neg) >= req.min_rows).then_some((learner, req.max_bins))
    }

    /// Algorithm 1 proper, with per-member fault isolation, on the
    /// cleaned matrix `x` and its binary labels `y`; input preconditions
    /// already checked. `bins`, when given, is an index of `x` built with
    /// [`Self::binned_path`]'s bin cap, used in place of building one.
    /// On the healthy path (no panics, no NaN members, no budget trips)
    /// this is bit-for-bit the original sequential loop: the parent RNG
    /// advances identically and every member trains from `rng.fork(i)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fit_validated(
        &self,
        x: &Matrix,
        y: &[u8],
        bins: Option<&BinIndex>,
        seed: u64,
        sanitize_report: spe_data::SanitizeReport,
        warm: Option<&[f64]>,
        mut trace: Option<&mut FitTrace>,
    ) -> Result<SelfPacedEnsemble, SpeError> {
        let mut rng = SeededRng::new(seed);

        let idx = BinaryIndex::of_labels(y);
        let n_pos = idx.minority.len();
        let n_neg = idx.majority.len();

        // Warm start: the live model's probability of every majority
        // row, which drives member 0's draw in place of random
        // under-sampling.
        let warm_proba: Option<Vec<f64>> =
            warm.map(|p| idx.majority.iter().map(|&r| p[r]).collect());

        // Histogram fast path: bin the full (cleaned) matrix once, or
        // borrow the caller's index of it — every member then trains on
        // row ids of this index, and every majority row is rescored
        // straight from its codes. Otherwise (no bin support, or too few
        // rows to amortize binning) members train on and rescore dense
        // copies of the two classes.
        let built: BinIndex;
        let store = match self.binned_path(n_pos, n_neg) {
            Some((learner, max_bins)) => RowStore::Binned {
                learner,
                bins: match bins {
                    Some(shared) => shared,
                    None => {
                        built = BinIndex::build(x, max_bins);
                        &built
                    }
                },
                majority_ids: idx.majority.iter().map(|&r| r as u32).collect(),
            },
            None => RowStore::Dense {
                minority_x: x.select_rows(&idx.minority),
                majority_x: x.select_rows(&idx.majority),
            },
        };

        if let Some(t) = trace.as_deref_mut() {
            t.majority_rows = idx.majority.clone();
        }
        let mut rounds = Rounds::new(self, seed, n_pos, n_neg);
        for i in 0..self.n_estimators {
            if rounds.skip_for_budget() {
                continue;
            }
            let selection = rounds.select(i, &mut rng, warm_proba.as_deref(), trace.is_some());
            let selected = &selection.selected;
            let trained = rounds.fit(i, rng.fork(i as u64), selection.alpha, |rng, scores| {
                Ok(match &store {
                    RowStore::Binned {
                        learner,
                        bins,
                        majority_ids,
                    } => {
                        let model = self.train_member_binned(
                            *learner,
                            bins,
                            y,
                            &idx.minority,
                            majority_ids,
                            selected,
                            rng,
                        );
                        CodeScorer::compile(model.as_ref(), bins.cut_grids())?.score_rows(
                            bins.codes(),
                            bins.n_rows(),
                            majority_ids,
                            scores,
                        );
                        model
                    }
                    RowStore::Dense {
                        minority_x,
                        majority_x,
                    } => {
                        let model = self.train_member(minority_x, majority_x, selected, rng);
                        model.predict_proba_into(majority_x.view(), scores);
                        model
                    }
                })
            })?;
            if let (true, Some(t)) = (trained, trace.as_deref_mut()) {
                t.selections.push(selection.selected);
                t.hardness.extend(selection.hardness);
            }
        }
        rounds.finish(sanitize_report)
    }

    fn train_member(
        &self,
        minority_x: &Matrix,
        majority_x: &Matrix,
        majority_sel: &[usize],
        mut rng: SeededRng,
    ) -> Box<dyn Model> {
        let selected = majority_x.select_rows(majority_sel);
        let x = minority_x.vstack(&selected);
        let mut y = vec![1u8; minority_x.rows()];
        y.extend(std::iter::repeat_n(0u8, selected.rows()));
        // Shuffle so batch-training base learners see mixed classes.
        let mut order: Vec<usize> = (0..y.len()).collect();
        rng.shuffle(&mut order);
        let xs = x.select_rows(&order);
        let ys: Vec<u8> = order.iter().map(|&i| y[i]).collect();
        self.base.fit(&xs, &ys, rng.below(u32::MAX as usize) as u64)
    }

    /// Binned counterpart of [`Self::train_member`]: instead of copying
    /// P ∪ N' into a new matrix, the member trains on the row ids of the
    /// shared bin index (all minority rows plus the selected majority
    /// rows). Row order does not influence histogram training, so no
    /// shuffle is needed.
    #[allow(clippy::too_many_arguments)]
    fn train_member_binned(
        &self,
        learner: &dyn BinnedLearner,
        bins: &BinIndex,
        y: &[u8],
        minority_rows: &[usize],
        majority_ids: &[u32],
        majority_sel: &[usize],
        mut rng: SeededRng,
    ) -> Box<dyn Model> {
        let problem = BinnedProblem {
            bins,
            y,
            weights: None,
        };
        let mut rows: Vec<u32> = Vec::with_capacity(minority_rows.len() + majority_sel.len());
        rows.extend(minority_rows.iter().map(|&r| r as u32));
        rows.extend(majority_sel.iter().map(|&s| majority_ids[s]));
        learner.fit_on_bins(&problem, &rows, rng.below(u32::MAX as usize) as u64)
    }
}

/// Where the in-memory loop's members train and rescore from.
enum RowStore<'a> {
    /// The bin index of the whole matrix; majority rows are scored in
    /// code space.
    Binned {
        learner: &'a dyn BinnedLearner,
        bins: &'a BinIndex,
        /// Row id in `bins` of every majority position.
        majority_ids: Vec<u32>,
    },
    /// Dense copies of the two classes, for learners without bin
    /// support; majority rows are scored in `f64`.
    Dense {
        minority_x: Matrix,
        majority_x: Matrix,
    },
}

/// Per-iteration under-sampling record of one SPE training run.
#[derive(Clone, Debug, Default)]
pub struct FitTrace {
    /// Row indices (into the training dataset) of the majority class, in
    /// the order `selections`/`hardness` positions refer to.
    pub majority_rows: Vec<usize>,
    /// Majority positions selected at each iteration (index 0 = random
    /// first member).
    pub selections: Vec<Vec<usize>>,
    /// Hardness of every majority sample for each trained member whose
    /// draw was computed from hardness: every member after the first
    /// trained one (under any α schedule, uniform included), plus
    /// member 0 of a warm-started fit. A cold fit's random first member
    /// has none, so a clean cold fit records `n − 1` vectors.
    pub hardness: Vec<Vec<f64>>,
}

/// A trained Self-paced Ensemble.
pub struct SelfPacedEnsemble {
    inner: SoftVoteEnsemble,
    alphas: Vec<f64>,
    report: FitReport,
}

impl SelfPacedEnsemble {
    /// Assembles an ensemble from already-trained members — the end of
    /// every binary self-paced loop.
    pub(crate) fn from_members(
        models: Vec<Box<dyn Model>>,
        alphas: Vec<f64>,
        report: FitReport,
    ) -> Result<Self, SpeError> {
        Ok(Self {
            inner: SoftVoteEnsemble::try_new(models)?,
            alphas,
            report,
        })
    }

    /// Number of base models.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when the ensemble has no members (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Per-member training outcomes, sanitizer findings and budget
    /// status of the fit that produced this ensemble. A degraded-but-
    /// successful fit (some members dropped or skipped) is visible here;
    /// [`FitReport::is_clean`] is true for a fully healthy run.
    pub fn fit_report(&self) -> &FitReport {
        &self.report
    }

    /// The self-paced factor used at each iteration (α₀ = 0 for the
    /// random first member).
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// Average probability of the first `k` members (training-curve
    /// experiments, Fig. 5 / Fig. 7).
    pub fn predict_proba_prefix(&self, x: &Matrix, k: usize) -> Vec<f64> {
        self.inner.predict_proba_prefix(x, k)
    }

    /// Rebuilds a typed SPE from a persisted [`ModelSnapshot`].
    ///
    /// Only [`ModelSnapshot::SelfPaced`] is accepted — other kinds come
    /// back as [`SpeError::InvalidConfig`] so loaders can surface a
    /// precise mismatch. The restored ensemble predicts bit-identically
    /// to the one the snapshot was taken from and keeps its recorded
    /// `alphas`; the [`FitReport`] is not persisted, so `fit_report()`
    /// on a loaded model is empty-but-clean.
    pub fn from_snapshot(snapshot: ModelSnapshot) -> Result<Self, SpeError> {
        match snapshot {
            ModelSnapshot::SelfPaced { alphas, members } => {
                if alphas.len() != members.len() {
                    return Err(SpeError::DimensionMismatch {
                        what: "alpha/member",
                        expected: members.len(),
                        got: alphas.len(),
                    });
                }
                let models = members.into_iter().map(ModelSnapshot::restore).collect();
                Ok(Self {
                    inner: SoftVoteEnsemble::try_new(models)?,
                    alphas,
                    report: FitReport::default(),
                })
            }
            other => Err(SpeError::InvalidConfig(format!(
                "cannot rebuild an SPE from a {:?} snapshot",
                other.kind()
            ))),
        }
    }
}

impl Model for SelfPacedEnsemble {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        self.inner.predict_proba_view(x)
    }

    fn predict_proba_into(&self, x: MatrixView<'_>, out: &mut [f64]) {
        self.inner.predict_proba_into(x, out);
    }

    /// `Some` only when every member is snapshottable (always true for
    /// the built-in base learners).
    fn snapshot(&self) -> Option<ModelSnapshot> {
        let members = self
            .inner
            .models()
            .iter()
            .map(|m| m.snapshot())
            .collect::<Option<Vec<_>>>()?;
        Some(ModelSnapshot::SelfPaced {
            alphas: self.alphas.clone(),
            members,
        })
    }

    fn feature_bound(&self) -> FeatureBound {
        self.inner.feature_bound()
    }
}

impl Learner for SelfPacedEnsembleConfig {
    /// SPE as a drop-in [`Learner`]: per-sample weights are not part of
    /// Algorithm 1 and are ignored (asserted absent in debug builds).
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        debug_assert!(weights.is_none(), "SPE does not support sample weights");
        let data = Dataset::new(x.clone(), y.to_vec());
        Box::new(self.fit_dataset(&data, seed))
    }

    /// Fallible fit surfacing SPE's extra preconditions (two-class data,
    /// non-degenerate config) as [`SpeError`] values.
    fn try_fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Result<Box<dyn Model>, SpeError> {
        validate_fit_inputs(x, y, weights)?;
        let data = Dataset::new(x.clone(), y.to_vec());
        Ok(Box::new(self.try_fit_dataset(&data, seed)?))
    }

    fn name(&self) -> &'static str {
        "SPE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::MemberOutcome;
    use spe_data::{NEGATIVE, POSITIVE};
    use spe_metrics::aucprc;

    /// Imbalanced overlapping Gaussians: minority at +1.2, majority at 0.
    fn overlapping(n_pos: usize, n_neg: usize, seed: u64) -> Dataset {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(n_pos + n_neg, 2);
        let mut y = Vec::new();
        for _ in 0..n_neg {
            x.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]);
            y.push(0);
        }
        for _ in 0..n_pos {
            x.push_row(&[rng.normal(1.2, 1.0), rng.normal(1.2, 1.0)]);
            y.push(1);
        }
        Dataset::new(x, y)
    }

    #[test]
    fn trains_requested_number_of_members() {
        let d = overlapping(30, 600, 1);
        let m = SelfPacedEnsembleConfig::new(7).fit_dataset(&d, 2);
        assert_eq!(m.len(), 7);
        assert_eq!(m.alphas().len(), 7);
    }

    #[test]
    fn alpha_schedule_is_monotone() {
        let d = overlapping(20, 300, 3);
        let m = SelfPacedEnsembleConfig::new(10).fit_dataset(&d, 4);
        let a = m.alphas();
        assert_eq!(a[0], 0.0);
        for w in a.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn beats_single_model_on_imbalanced_overlap() {
        let train = overlapping(40, 2000, 5);
        let test = overlapping(40, 2000, 6);
        let tree = DecisionTreeConfig::default();
        let single = tree.fit(train.x(), train.y(), 7);
        let spe = SelfPacedEnsembleConfig::new(10).fit_dataset(&train, 7);
        let auc_single = aucprc(test.y(), &single.predict_proba(test.x()));
        let auc_spe = aucprc(test.y(), &spe.predict_proba(test.x()));
        assert!(
            auc_spe > auc_single,
            "single {auc_single:.3} vs spe {auc_spe:.3}"
        );
    }

    #[test]
    fn prefix_prediction_uses_partial_ensemble() {
        let d = overlapping(25, 400, 8);
        let m = SelfPacedEnsembleConfig::new(5).fit_dataset(&d, 9);
        let full = m.predict_proba(d.x());
        let prefix = m.predict_proba_prefix(d.x(), 5);
        assert_eq!(full, prefix);
        let one = m.predict_proba_prefix(d.x(), 1);
        assert_ne!(full, one);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = overlapping(20, 200, 10);
        let a = SelfPacedEnsembleConfig::new(4)
            .fit_dataset(&d, 11)
            .predict_proba(d.x());
        let b = SelfPacedEnsembleConfig::new(4)
            .fit_dataset(&d, 11)
            .predict_proba(d.x());
        assert_eq!(a, b);
    }

    #[test]
    fn works_as_learner_trait_object() {
        let d = overlapping(15, 150, 12);
        let learner: Arc<dyn Learner> = Arc::new(SelfPacedEnsembleConfig::new(3));
        let m = learner.fit(d.x(), d.y(), 13);
        assert_eq!(m.predict_proba(d.x()).len(), d.len());
        assert_eq!(learner.name(), "SPE");
    }

    #[test]
    fn minority_larger_than_majority_still_trains() {
        let d = overlapping(50, 20, 14);
        let m = SelfPacedEnsembleConfig::new(3).fit_dataset(&d, 15);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn ablated_schedules_train() {
        let d = overlapping(25, 400, 16);
        for schedule in [
            AlphaSchedule::Constant(0.0),
            AlphaSchedule::Constant(1e6),
            AlphaSchedule::Uniform,
        ] {
            let cfg = SelfPacedEnsembleConfig {
                alpha_schedule: schedule,
                ..SelfPacedEnsembleConfig::new(5)
            };
            let m = cfg.fit_dataset(&d, 17);
            assert_eq!(m.len(), 5, "{schedule:?}");
            let p = m.predict_proba(d.x());
            assert!(p.iter().all(|v| (0.0..=1.0).contains(v)), "{schedule:?}");
        }
    }

    #[test]
    fn uniform_schedule_records_nan_alphas() {
        let d = overlapping(20, 200, 18);
        let cfg = SelfPacedEnsembleConfig {
            alpha_schedule: AlphaSchedule::Uniform,
            ..SelfPacedEnsembleConfig::new(4)
        };
        let m = cfg.fit_dataset(&d, 19);
        assert_eq!(m.alphas()[0], 0.0);
        assert!(m.alphas()[1..].iter().all(|a| a.is_nan()));
    }

    #[test]
    #[should_panic(expected = "at least one minority")]
    fn rejects_single_class() {
        let x = Matrix::zeros(5, 1);
        let d = Dataset::new(x, vec![0; 5]);
        let _ = SelfPacedEnsembleConfig::default().fit_dataset(&d, 0);
    }

    #[test]
    fn try_fit_dataset_reports_errors_as_values() {
        let d = Dataset::new(Matrix::zeros(5, 1), vec![0; 5]);
        assert_eq!(
            SelfPacedEnsembleConfig::default()
                .try_fit_dataset(&d, 0)
                .err(),
            Some(SpeError::EmptyClass { label: POSITIVE })
        );
        let all_pos = Dataset::new(Matrix::zeros(5, 1), vec![1; 5]);
        assert_eq!(
            SelfPacedEnsembleConfig::default()
                .try_fit_dataset(&all_pos, 0)
                .err(),
            Some(SpeError::EmptyClass { label: NEGATIVE })
        );
        let cfg = SelfPacedEnsembleConfig::new(0);
        let ok = overlapping(10, 100, 20);
        assert!(matches!(
            cfg.try_fit_dataset(&ok, 0),
            Err(SpeError::InvalidConfig(_))
        ));
        let empty = Dataset::new(Matrix::zeros(0, 1), Vec::new());
        assert_eq!(
            SelfPacedEnsembleConfig::default()
                .try_fit_dataset(&empty, 0)
                .err(),
            Some(SpeError::EmptyDataset)
        );
    }

    #[test]
    fn try_fit_matches_panicking_fit() {
        let d = overlapping(20, 200, 21);
        let a = SelfPacedEnsembleConfig::new(4)
            .fit_dataset(&d, 22)
            .predict_proba(d.x());
        let b = SelfPacedEnsembleConfig::new(4)
            .try_fit_dataset(&d, 22)
            .unwrap()
            .predict_proba(d.x());
        assert_eq!(a, b);
    }

    /// Base learner that panics on every odd-numbered `fit` call —
    /// deterministic given the sequential member loop, and guaranteed to
    /// succeed on the first retry.
    struct FlakyEveryOther {
        inner: DecisionTreeConfig,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl Learner for FlakyEveryOther {
        fn fit_weighted(
            &self,
            x: &Matrix,
            y: &[u8],
            weights: Option<&[f64]>,
            seed: u64,
        ) -> Box<dyn Model> {
            let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            assert!(call % 2 != 0, "flaky failure on call {call}");
            self.inner.fit_weighted(x, y, weights, seed)
        }
        fn name(&self) -> &'static str {
            "Flaky"
        }
    }

    struct AlwaysPanic;
    impl Learner for AlwaysPanic {
        fn fit_weighted(
            &self,
            _x: &Matrix,
            _y: &[u8],
            _w: Option<&[f64]>,
            _seed: u64,
        ) -> Box<dyn Model> {
            panic!("always fails");
        }
        fn name(&self) -> &'static str {
            "AlwaysPanic"
        }
    }

    #[test]
    fn all_members_failing_yields_training_failed_not_abort() {
        let d = overlapping(10, 100, 30);
        let cfg = SelfPacedEnsembleConfig::with_base(5, Arc::new(AlwaysPanic));
        assert_eq!(
            cfg.try_fit_dataset(&d, 31).err(),
            Some(SpeError::TrainingFailed {
                trained: 0,
                required: 1
            })
        );
    }

    #[test]
    fn flaky_members_recover_via_retries() {
        let d = overlapping(10, 100, 32);
        let cfg = SelfPacedEnsembleConfig::with_base(
            4,
            Arc::new(FlakyEveryOther {
                inner: DecisionTreeConfig::default(),
                calls: std::sync::atomic::AtomicUsize::new(0),
            }),
        );
        let m = cfg.try_fit_dataset(&d, 33).unwrap();
        assert_eq!(m.len(), 4);
        let report = m.fit_report();
        assert_eq!(report.n_trained(), 4);
        assert_eq!(report.n_retried(), 4);
        assert!(report
            .members
            .iter()
            .all(|o| matches!(o, MemberOutcome::Retried { attempts: 2 })));
    }

    #[test]
    fn flaky_members_drop_when_retries_disabled() {
        let d = overlapping(10, 100, 34);
        let cfg = SelfPacedEnsembleConfig {
            max_member_retries: 0,
            ..SelfPacedEnsembleConfig::with_base(
                4,
                Arc::new(FlakyEveryOther {
                    inner: DecisionTreeConfig::default(),
                    calls: std::sync::atomic::AtomicUsize::new(0),
                }),
            )
        };
        let m = cfg.try_fit_dataset(&d, 35).unwrap();
        // Calls alternate panic/success, so exactly half the slots drop.
        assert_eq!(m.len(), 2);
        let report = m.fit_report();
        assert_eq!(report.n_dropped(), 2);
        assert!(report.members.iter().any(|o| matches!(
            o,
            MemberOutcome::Dropped {
                error: SpeError::Panicked { .. }
            }
        )));
    }

    #[test]
    fn too_few_survivors_fails_with_min_members() {
        let d = overlapping(10, 100, 36);
        let cfg = SelfPacedEnsembleConfig {
            max_member_retries: 0,
            min_members: 3,
            ..SelfPacedEnsembleConfig::with_base(
                4,
                Arc::new(FlakyEveryOther {
                    inner: DecisionTreeConfig::default(),
                    calls: std::sync::atomic::AtomicUsize::new(0),
                }),
            )
        };
        assert_eq!(
            cfg.try_fit_dataset(&d, 37).err(),
            Some(SpeError::TrainingFailed {
                trained: 2,
                required: 3
            })
        );
    }

    #[test]
    fn exhausted_budget_skips_members_but_trains_first() {
        let d = overlapping(15, 150, 38);
        let cfg = SelfPacedEnsembleConfig {
            budget: TrainingBudget::wall_clock(std::time::Duration::ZERO),
            ..SelfPacedEnsembleConfig::new(6)
        };
        let m = cfg.try_fit_dataset(&d, 39).unwrap();
        assert_eq!(m.len(), 1, "first member always trains");
        let report = m.fit_report();
        assert!(report.budget_exhausted);
        assert_eq!(report.n_skipped(), 5);
        assert_eq!(report.members[0], MemberOutcome::Trained);
    }

    #[test]
    fn clean_run_reports_clean() {
        let d = overlapping(15, 150, 40);
        let m = SelfPacedEnsembleConfig::new(3)
            .try_fit_dataset(&d, 41)
            .unwrap();
        assert!(m.fit_report().is_clean());
        assert_eq!(m.fit_report().members.len(), 3);
    }

    #[test]
    fn sanitizer_policies_flow_through_fit() {
        // Inject a NaN row; Reject errors, ImputeMean/DropRows train.
        let mut d = overlapping(15, 150, 42);
        d.x_mut().row_mut(0)[0] = f64::NAN;
        assert_eq!(
            SelfPacedEnsembleConfig::new(3)
                .try_fit_dataset(&d, 43)
                .err(),
            Some(SpeError::NonFiniteFeature { row: 0, col: 0 })
        );
        for policy in [SanitizePolicy::ImputeMean, SanitizePolicy::DropRows] {
            let cfg = SelfPacedEnsembleConfig {
                sanitize: policy,
                ..SelfPacedEnsembleConfig::new(3)
            };
            let m = cfg.try_fit_dataset(&d, 44).unwrap();
            assert_eq!(m.len(), 3, "{policy:?}");
            assert!(!m.fit_report().sanitize.is_clean());
        }
    }

    #[test]
    fn histogram_base_trains_and_is_deterministic() {
        let d = overlapping(30, 600, 50);
        let base: SharedLearner = Arc::new(DecisionTreeConfig {
            split_method: spe_learners::SplitMethod::Histogram,
            ..DecisionTreeConfig::default()
        });
        let cfg = SelfPacedEnsembleConfig::with_base(5, base);
        let m = cfg.fit_dataset(&d, 51);
        assert_eq!(m.len(), 5);
        let a = m.predict_proba(d.x());
        let b = cfg.fit_dataset(&d, 51).predict_proba(d.x());
        assert_eq!(a, b);
        assert!(a.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn histogram_base_matches_exact_quality() {
        let train = overlapping(40, 2000, 52);
        let test = overlapping(40, 2000, 53);
        let hist_base: SharedLearner = Arc::new(DecisionTreeConfig {
            split_method: spe_learners::SplitMethod::Histogram,
            ..DecisionTreeConfig::default()
        });
        let exact_base: SharedLearner = Arc::new(DecisionTreeConfig {
            split_method: spe_learners::SplitMethod::Exact,
            ..DecisionTreeConfig::default()
        });
        let hist = SelfPacedEnsembleConfig::with_base(10, hist_base).fit_dataset(&train, 54);
        let exact = SelfPacedEnsembleConfig::with_base(10, exact_base).fit_dataset(&train, 54);
        let auc_h = aucprc(test.y(), &hist.predict_proba(test.x()));
        let auc_e = aucprc(test.y(), &exact.predict_proba(test.x()));
        assert!(
            (auc_h - auc_e).abs() < 0.05,
            "hist {auc_h:.3} vs exact {auc_e:.3}"
        );
    }

    #[test]
    fn warm_fit_trains_and_is_deterministic() {
        let d = overlapping(25, 400, 60);
        let cfg = SelfPacedEnsembleConfig::new(5);
        let incumbent = cfg.fit_dataset(&d, 61);
        let live = incumbent.predict_proba(d.x());
        let a = cfg.try_fit_dataset_warm(&d, 62, &live).unwrap();
        let b = cfg.try_fit_dataset_warm(&d, 62, &live).unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a.predict_proba(d.x()), b.predict_proba(d.x()));
        // The warm selection differs from the cold random first member.
        let cold = cfg.try_fit_dataset(&d, 62).unwrap();
        assert_ne!(a.predict_proba(d.x()), cold.predict_proba(d.x()));
    }

    #[test]
    fn warm_fit_keeps_quality() {
        let train = overlapping(40, 2000, 63);
        let test = overlapping(40, 2000, 64);
        let cfg = SelfPacedEnsembleConfig::new(10);
        let incumbent = cfg.fit_dataset(&train, 65);
        let live = incumbent.predict_proba(train.x());
        let warm = cfg.try_fit_dataset_warm(&train, 66, &live).unwrap();
        let auc_cold = aucprc(test.y(), &incumbent.predict_proba(test.x()));
        let auc_warm = aucprc(test.y(), &warm.predict_proba(test.x()));
        assert!(
            auc_warm > auc_cold - 0.05,
            "cold {auc_cold:.3} vs warm {auc_warm:.3}"
        );
    }

    #[test]
    fn warm_fit_rejects_bad_inputs() {
        let d = overlapping(15, 150, 67);
        let cfg = SelfPacedEnsembleConfig::new(3);
        let short = vec![0.5; d.len() - 1];
        assert!(matches!(
            cfg.try_fit_dataset_warm(&d, 0, &short),
            Err(SpeError::DimensionMismatch { .. })
        ));
        let mut nan = vec![0.5; d.len()];
        nan[3] = f64::NAN;
        assert!(matches!(
            cfg.try_fit_dataset_warm(&d, 0, &nan),
            Err(SpeError::NonFiniteOutput { .. })
        ));
        let dropping = SelfPacedEnsembleConfig {
            sanitize: SanitizePolicy::DropRows,
            ..SelfPacedEnsembleConfig::new(3)
        };
        assert!(matches!(
            dropping.try_fit_dataset_warm(&d, 0, &vec![0.5; d.len()]),
            Err(SpeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn warm_fit_uniform_schedule_falls_back_to_random() {
        let d = overlapping(20, 300, 68);
        let cfg = SelfPacedEnsembleConfig {
            alpha_schedule: AlphaSchedule::Uniform,
            ..SelfPacedEnsembleConfig::new(4)
        };
        let live = vec![0.5; d.len()];
        let m = cfg.try_fit_dataset_warm(&d, 69, &live).unwrap();
        assert_eq!(m.len(), 4);
        // Uniform has no α at iteration 0 either, so the warm first
        // member records NaN like every other uniform member.
        assert!(m.alphas()[0].is_nan());
    }

    #[test]
    fn traced_uniform_fit_still_records_hardness() {
        let d = overlapping(20, 300, 70);
        let cfg = SelfPacedEnsembleConfig {
            alpha_schedule: AlphaSchedule::Uniform,
            ..SelfPacedEnsembleConfig::new(5)
        };
        let (traced, trace) = cfg.try_fit_dataset_traced(&d, 71).unwrap();
        assert_eq!(trace.selections.len(), 5);
        assert_eq!(trace.hardness.len(), 4);
        assert!(trace.hardness.iter().all(|h| h.len() == 300));
        let plain = cfg.try_fit_dataset(&d, 71).unwrap();
        assert_eq!(traced.predict_proba(d.x()), plain.predict_proba(d.x()));
    }

    /// A histogram tree whose models hide their snapshot, so they can
    /// train on bins but not be compiled to bin space.
    struct OpaqueBinned(DecisionTreeConfig);
    struct Opaque(Box<dyn Model>);
    impl Model for Opaque {
        fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
            self.0.predict_proba_view(x)
        }
    }
    impl Learner for OpaqueBinned {
        fn fit_weighted(
            &self,
            x: &Matrix,
            y: &[u8],
            weights: Option<&[f64]>,
            seed: u64,
        ) -> Box<dyn Model> {
            Box::new(Opaque(self.0.fit_weighted(x, y, weights, seed)))
        }
        fn name(&self) -> &'static str {
            "OpaqueBinned"
        }
        fn as_binned(&self) -> Option<&dyn BinnedLearner> {
            Some(self)
        }
    }
    impl BinnedLearner for OpaqueBinned {
        fn bin_request(&self) -> Option<spe_learners::traits::BinRequest> {
            self.0.bin_request()
        }
        fn fit_on_bins(
            &self,
            problem: &BinnedProblem<'_>,
            rows: &[u32],
            seed: u64,
        ) -> Box<dyn Model> {
            Box::new(Opaque(self.0.fit_on_bins(problem, rows, seed)))
        }
    }

    #[test]
    fn member_that_cannot_bin_compile_is_a_typed_error() {
        let d = overlapping(20, 300, 72);
        let base = OpaqueBinned(DecisionTreeConfig {
            split_method: spe_learners::SplitMethod::Histogram,
            ..DecisionTreeConfig::default()
        });
        let cfg = SelfPacedEnsembleConfig::with_base(3, Arc::new(base));
        assert!(matches!(
            cfg.try_fit_dataset(&d, 73),
            Err(SpeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn runtime_cap_does_not_change_results() {
        let d = overlapping(20, 200, 23);
        let sequential = SelfPacedEnsembleConfig {
            runtime: Runtime::with_threads(1),
            ..SelfPacedEnsembleConfig::new(4)
        };
        let parallel = SelfPacedEnsembleConfig {
            runtime: Runtime::with_threads(4),
            ..SelfPacedEnsembleConfig::new(4)
        };
        let a = sequential.fit_dataset(&d, 24).predict_proba(d.x());
        let b = parallel.fit_dataset(&d, 24).predict_proba(d.x());
        assert_eq!(a, b);
    }
}
