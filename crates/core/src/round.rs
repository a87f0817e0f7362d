//! The self-paced round shared by the binary training loops — the
//! in-memory fit ([`SelfPacedEnsembleConfig::try_fit_dataset`]) and the
//! out-of-core fit ([`crate::oocore`]).
//!
//! One round is Algorithm 1, lines 2 and 4–10: hardness of every
//! majority row into a reused per-row buffer (only when the sampler or
//! a trace reads it), the member's majority draw, the member fit under
//! the fault contract (retries with fresh seeds, then drop), and the
//! member's majority scores folded into the running probability sum.
//! The loops differ only in where rows live: they hand [`Rounds::fit`]
//! an attempt that trains on their row store and rescores every
//! majority row into the buffer it is given.
//!
//! Rounds are bit-identical for every thread count: per-row work
//! (hardness, bin ids, scores, the running sum) is pure and runs
//! row-parallel, the hardness range is an exact min/max, and bin sums
//! run in row order (see [`HardnessBins`]).

use crate::bins::HardnessBins;
use crate::report::{FitReport, MemberOutcome};
use crate::sampler::SelfPacedSampler;
use crate::{SelfPacedEnsemble, SelfPacedEnsembleConfig};
use spe_data::{SanitizeReport, SeededRng, SpeError};
use spe_learners::traits::Model;
use spe_runtime::{fork_seed, panic_message};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fewest rows one parallel per-row task handles.
const MIN_ROWS_PER_TASK: usize = 4096;

/// The majority draw of one member.
pub(crate) struct Selection {
    /// Majority positions the member trains on.
    pub selected: Vec<usize>,
    /// Self-paced factor of the draw (0 for the random first member,
    /// NaN for uniform draws).
    pub alpha: f64,
    /// The hardness the draw saw, when the caller asked to record it
    /// and the round computed it.
    pub hardness: Option<Vec<f64>>,
}

/// State of one binary self-paced fit across its rounds.
pub(crate) struct Rounds<'a> {
    cfg: &'a SelfPacedEnsembleConfig,
    sampler: SelfPacedSampler,
    /// |P|: the size of every majority draw.
    n_pos: usize,
    /// Root of the retry-seed chain: a retry never perturbs the parent
    /// RNG stream, which stays aligned with the healthy path.
    retry_root: u64,
    /// Sum of the trained members' probabilities per majority row.
    proba_sum: Vec<f64>,
    /// Per-majority-row scratch: a round's hardness, then the new
    /// member's scores.
    scratch: Vec<f64>,
    bins: HardnessBins,
    models: Vec<Box<dyn Model>>,
    alphas: Vec<f64>,
    outcomes: Vec<MemberOutcome>,
}

impl<'a> Rounds<'a> {
    pub fn new(cfg: &'a SelfPacedEnsembleConfig, seed: u64, n_pos: usize, n_neg: usize) -> Self {
        let n = cfg.n_estimators;
        Self {
            cfg,
            sampler: SelfPacedSampler { k_bins: cfg.k_bins },
            n_pos,
            retry_root: fork_seed(seed, 0xFA01),
            proba_sum: vec![0.0; n_neg],
            scratch: vec![0.0; n_neg],
            bins: HardnessBins::default(),
            models: Vec::with_capacity(n),
            alphas: Vec::with_capacity(n),
            outcomes: Vec::with_capacity(n),
        }
    }

    /// Budget check between members: once the budget is spent, the
    /// remaining slots are recorded as skipped — except the very first
    /// member, which is always attempted so `min_members = 1` can
    /// still succeed.
    pub fn skip_for_budget(&mut self) -> bool {
        let skip = !self.models.is_empty() && spe_runtime::budget_exceeded();
        if skip {
            self.outcomes.push(MemberOutcome::Skipped);
        }
        skip
    }

    /// Draws member `i`'s majority subset. Before any member has
    /// trained the draw is uniform at random (Algorithm 1, line 2) —
    /// unless `warm` holds a live model's probability for every
    /// majority row, which makes member 0 self-paced already. After
    /// that the draw is self-paced on hardness w.r.t. the current
    /// ensemble (lines 4–9), or uniform under
    /// [`AlphaSchedule::Uniform`](crate::AlphaSchedule::Uniform), which
    /// never reads hardness and so only computes it when `record` asks
    /// for a copy.
    pub fn select(
        &mut self,
        i: usize,
        rng: &mut SeededRng,
        warm: Option<&[f64]>,
        record: bool,
    ) -> Selection {
        let n_neg = self.proba_sum.len();
        let trained = self.models.len();
        let live = if trained == 0 {
            match warm.filter(|_| i == 0) {
                Some(live) => Some(live),
                None => {
                    return Selection {
                        selected: rng.sample_indices(n_neg, self.n_pos.min(n_neg)),
                        alpha: 0.0,
                        hardness: None,
                    }
                }
            }
        } else {
            None
        };
        let alpha = self.cfg.alpha_schedule.alpha(i, self.cfg.n_estimators);
        let mut hardness = None;
        if alpha.is_some() || record {
            let h = self.cfg.hardness;
            let proba_sum = &self.proba_sum;
            let inv = 1.0 / trained as f64;
            spe_runtime::par_chunks_mut(&mut self.scratch, MIN_ROWS_PER_TASK, |start, chunk| {
                let rows = start..start + chunk.len();
                match live {
                    Some(p) => {
                        for (o, &p) in chunk.iter_mut().zip(&p[rows]) {
                            *o = h.eval(p, 0);
                        }
                    }
                    None => {
                        for (o, &s) in chunk.iter_mut().zip(&proba_sum[rows]) {
                            *o = h.eval(s * inv, 0);
                        }
                    }
                }
            });
            if record {
                hardness = Some(self.scratch.clone());
            }
        }
        let (selected, alpha) = match alpha {
            Some(alpha) => (
                self.sampler
                    .sample_in(&mut self.bins, &self.scratch, alpha, self.n_pos, rng)
                    .selected,
                alpha,
            ),
            None => (rng.sample_indices(n_neg, self.n_pos.min(n_neg)), f64::NAN),
        };
        Selection {
            selected,
            alpha,
            hardness,
        }
    }

    /// Trains member `i` (Algorithm 1, line 10) and folds its majority
    /// scores into the running sum. Returns whether the member trained.
    ///
    /// `attempt(rng, scores)` fits one candidate from `rng` and writes
    /// its probability for every majority row into `scores`. An attempt
    /// that panics or scores a non-finite value is retried with a fresh
    /// seed, up to `max_member_retries` times, and then the slot is
    /// dropped; an attempt that returns an error ends the fit with it.
    pub fn fit(
        &mut self,
        i: usize,
        member_rng: SeededRng,
        alpha: f64,
        mut attempt: impl FnMut(SeededRng, &mut [f64]) -> Result<Box<dyn Model>, SpeError>,
    ) -> Result<bool, SpeError> {
        let mut last_err = SpeError::Panicked {
            context: format!("member {i}"),
            message: "never attempted".into(),
        };
        for n_attempt in 0..=self.cfg.max_member_retries {
            let rng = if n_attempt == 0 {
                member_rng.clone()
            } else {
                SeededRng::new(fork_seed(
                    fork_seed(self.retry_root, i as u64),
                    n_attempt as u64,
                ))
            };
            let scores = &mut self.scratch;
            match catch_unwind(AssertUnwindSafe(|| attempt(rng, scores))) {
                Ok(Ok(model)) => {
                    if !self.scratch.iter().all(|p| p.is_finite()) {
                        last_err = SpeError::NonFiniteOutput {
                            context: format!("member {i}"),
                        };
                        continue;
                    }
                    let scores = &self.scratch;
                    spe_runtime::par_chunks_mut(
                        &mut self.proba_sum,
                        MIN_ROWS_PER_TASK,
                        |start, chunk| {
                            for (s, &p) in chunk.iter_mut().zip(&scores[start..]) {
                                *s += p;
                            }
                        },
                    );
                    self.models.push(model);
                    self.alphas.push(alpha);
                    self.outcomes.push(if n_attempt == 0 {
                        MemberOutcome::Trained
                    } else {
                        MemberOutcome::Retried {
                            attempts: n_attempt + 1,
                        }
                    });
                    return Ok(true);
                }
                Ok(Err(fatal)) => return Err(fatal),
                Err(payload) => {
                    last_err = SpeError::Panicked {
                        context: format!("member {i}"),
                        message: panic_message(payload.as_ref()),
                    };
                }
            }
        }
        self.outcomes
            .push(MemberOutcome::Dropped { error: last_err });
        Ok(false)
    }

    /// The trained ensemble, or [`SpeError::TrainingFailed`] when fewer
    /// than `min_members` members trained.
    pub fn finish(self, sanitize: SanitizeReport) -> Result<SelfPacedEnsemble, SpeError> {
        let required = self.cfg.min_members.max(1);
        if self.models.len() < required {
            return Err(SpeError::TrainingFailed {
                trained: self.models.len(),
                required,
            });
        }
        let report = FitReport {
            members: self.outcomes,
            sanitize,
            budget_exhausted: spe_runtime::budget_exceeded(),
        };
        SelfPacedEnsemble::from_members(self.models, self.alphas, report)
    }
}
