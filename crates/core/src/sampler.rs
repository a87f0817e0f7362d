//! The self-paced under-sampling step (Algorithm 1, lines 5–9).
//!
//! Given the hardness of every majority sample, the sampler bins them,
//! weights bin ℓ by `p_ℓ = 1 / (h_ℓ + α)` and draws a per-bin quota
//! proportional to `p_ℓ`, without replacement. Quotas exceeding a bin's
//! population are redistributed to the remaining bins (largest-remainder
//! style), matching the authors' reference implementation and keeping
//! the subset size at the target whenever enough majority samples exist.

use crate::bins::HardnessBins;
use spe_data::SeededRng;

/// Self-paced factor `α = tan(i·π / 2n)` for iteration `i` of `n`
/// (Algorithm 1, line 7). `i = 0` gives 0; `i → n` diverges, so callers
/// use `i ∈ [0, n−1]`.
pub fn self_paced_factor(iteration: usize, n_estimators: usize) -> f64 {
    assert!(n_estimators > 0, "need at least one estimator");
    let ratio = iteration as f64 / n_estimators as f64;
    (ratio * std::f64::consts::FRAC_PI_2).tan()
}

/// How α evolves across iterations — the ablation axis of `DESIGN.md`.
///
/// The paper's Algorithm 1 uses [`AlphaSchedule::SelfPaced`]; the other
/// variants isolate the contribution of each ingredient:
///
/// - `Constant(0.0)` — pure hardness harmonization at every iteration
///   (the paper's Fig. 3(b) regime, which "still leaves a lot of trivial
///   samples"),
/// - `Constant(large)` — near-uniform bin weights from the start (easy
///   skeleton dominates, hard samples never get focus),
/// - `Uniform` — skip hardness entirely and under-sample uniformly at
///   random each iteration (reduces SPE to UnderBagging).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AlphaSchedule {
    /// Paper schedule: `α = tan(iπ/2n)`.
    SelfPaced,
    /// Fixed α at every self-paced iteration.
    Constant(f64),
    /// Ignore hardness; uniform random majority subsets.
    Uniform,
}

impl AlphaSchedule {
    /// The α used at iteration `i` of `n`, or `None` for uniform random
    /// sampling.
    pub fn alpha(self, iteration: usize, n_estimators: usize) -> Option<f64> {
        match self {
            AlphaSchedule::SelfPaced => Some(self_paced_factor(iteration, n_estimators)),
            AlphaSchedule::Constant(a) => Some(a),
            AlphaSchedule::Uniform => None,
        }
    }
}

/// How many samples of each class a multi-class self-paced iteration
/// trains on — the k-way generalization of the paper's "|P| majority
/// samples" rule (which is exactly [`BalancingSchedule::Uniform`] at
/// `k = 2`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BalancingSchedule {
    /// Every class is under-sampled to the smallest class's count at
    /// every iteration — fully balanced subsets throughout.
    Uniform,
    /// Linear interpolation from the original class distribution toward
    /// the uniform target as iterations progress: iteration `i` of `n`
    /// uses fraction `(i + 1) / n` of the way to balanced. Early members
    /// see (near-)original skew, late members see balanced data —
    /// self-pacing applied to the class distribution itself.
    Progressive,
    /// Explicit per-class target counts (length `k`), each clamped to
    /// the class's available count at draw time.
    Custom(Vec<usize>),
}

impl BalancingSchedule {
    /// Per-class target counts for iteration `i` of `n`, given the
    /// observed per-class `counts`.
    ///
    /// Targets never exceed the observed counts and never drop below 1
    /// for a non-empty class (a class must not vanish from a subset).
    ///
    /// # Panics
    /// Panics when `n == 0`, `i >= n`, or a `Custom` schedule's length
    /// disagrees with `counts.len()`.
    pub fn targets(&self, counts: &[usize], iteration: usize, n_estimators: usize) -> Vec<usize> {
        assert!(n_estimators > 0, "need at least one estimator");
        assert!(
            iteration < n_estimators,
            "iteration {iteration} out of range for {n_estimators} estimators"
        );
        let min_count = counts.iter().copied().filter(|&c| c > 0).min().unwrap_or(0);
        match self {
            BalancingSchedule::Uniform => counts
                .iter()
                .map(|&c| if c == 0 { 0 } else { min_count })
                .collect(),
            BalancingSchedule::Progressive => {
                let t = (iteration + 1) as f64 / n_estimators as f64;
                counts
                    .iter()
                    .map(|&c| {
                        if c == 0 {
                            0
                        } else {
                            let interp = c as f64 + t * (min_count as f64 - c as f64);
                            (interp.round() as usize).clamp(1, c)
                        }
                    })
                    .collect()
            }
            BalancingSchedule::Custom(targets) => {
                assert_eq!(
                    targets.len(),
                    counts.len(),
                    "custom schedule must name a target per class"
                );
                targets
                    .iter()
                    .zip(counts)
                    .map(|(&t, &c)| if c == 0 { 0 } else { t.clamp(1, c) })
                    .collect()
            }
        }
    }
}

/// Self-paced under-sampler over a hardness distribution.
#[derive(Clone, Copy, Debug)]
pub struct SelfPacedSampler {
    /// Number of hardness bins `k` (paper default: 20).
    pub k_bins: usize,
}

impl Default for SelfPacedSampler {
    fn default() -> Self {
        Self { k_bins: 20 }
    }
}

/// Outcome of one self-paced sampling step, kept for diagnostics and the
/// Fig. 3 experiment.
#[derive(Clone, Debug)]
pub struct SampleOutcome {
    /// Selected positions into the hardness slice.
    pub selected: Vec<usize>,
    /// Per-bin quota actually drawn.
    pub per_bin: Vec<usize>,
    /// Unnormalized bin weights `p_ℓ` (0 for empty bins).
    pub weights: Vec<f64>,
}

impl SelfPacedSampler {
    /// Draws `target` positions (without replacement) from the hardness
    /// distribution using self-paced factor `alpha`.
    ///
    /// When `target >= hardness.len()` every position is returned.
    pub fn sample(
        &self,
        hardness: &[f64],
        alpha: f64,
        target: usize,
        rng: &mut SeededRng,
    ) -> SampleOutcome {
        self.sample_in(&mut HardnessBins::default(), hardness, alpha, target, rng)
    }

    /// [`Self::sample`] that rebins into `bins` in place, so a training
    /// loop that samples every round reuses one histogram's buffers.
    pub(crate) fn sample_in(
        &self,
        bins: &mut HardnessBins,
        hardness: &[f64],
        alpha: f64,
        target: usize,
        rng: &mut SeededRng,
    ) -> SampleOutcome {
        assert!(alpha >= 0.0, "alpha must be non-negative");
        let n = hardness.len();
        if target >= n {
            return SampleOutcome {
                selected: (0..n).collect(),
                per_bin: vec![n],
                weights: vec![1.0],
            };
        }
        bins.recut(hardness, self.k_bins);
        let populations: Vec<usize> = bins.stats().iter().map(|s| s.population).collect();
        let weights: Vec<f64> = bins
            .stats()
            .iter()
            .map(|s| {
                if s.population == 0 {
                    0.0
                } else {
                    1.0 / (s.mean_hardness + alpha).max(1e-12)
                }
            })
            .collect();
        let per_bin = allocate_quota(&weights, &populations, target);
        let mut selected = Vec::with_capacity(target);
        for (b, &quota) in per_bin.iter().enumerate() {
            if quota == 0 {
                continue;
            }
            selected.extend(rng.sample_from(bins.members(b), quota));
        }
        SampleOutcome {
            selected,
            per_bin,
            weights,
        }
    }
}

/// Splits `target` draws across bins proportionally to `weights`,
/// clamping each bin to its population and redistributing the shortfall.
fn allocate_quota(weights: &[f64], populations: &[usize], target: usize) -> Vec<usize> {
    let k = weights.len();
    let mut quota = vec![0usize; k];
    let mut remaining = target;
    // Iterate: proportional allocation over bins with spare capacity.
    // Terminates because each round either fills `remaining` or saturates
    // at least one bin.
    let mut active: Vec<usize> = (0..k).filter(|&l| populations[l] > 0).collect();
    while remaining > 0 && !active.is_empty() {
        let w_total: f64 = active.iter().map(|&l| weights[l]).sum();
        if w_total <= 0.0 {
            break;
        }
        // Real-valued shares with largest-remainder rounding.
        let mut shares: Vec<(usize, f64)> = active
            .iter()
            .map(|&l| (l, weights[l] / w_total * remaining as f64))
            .collect();
        let mut allocated = 0usize;
        let mut saturated = Vec::new();
        for &mut (l, share) in &mut shares {
            let cap = populations[l] - quota[l];
            let take = (share.floor() as usize).min(cap);
            quota[l] += take;
            allocated += take;
            if quota[l] == populations[l] {
                saturated.push(l);
            }
        }
        if allocated == 0 {
            // Floors were all zero: hand out singles by largest remainder.
            shares.sort_by(|a, b| {
                (b.1 - b.1.floor())
                    .total_cmp(&(a.1 - a.1.floor()))
                    .then(a.0.cmp(&b.0))
            });
            for &(l, _) in &shares {
                if allocated == remaining {
                    break;
                }
                if quota[l] < populations[l] {
                    quota[l] += 1;
                    allocated += 1;
                    if quota[l] == populations[l] {
                        saturated.push(l);
                    }
                }
            }
        }
        if allocated == 0 {
            break; // no capacity anywhere
        }
        remaining -= allocated.min(remaining);
        active.retain(|l| !saturated.contains(l));
    }
    quota
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_schedule_variants() {
        assert_eq!(AlphaSchedule::SelfPaced.alpha(0, 10), Some(0.0));
        let mid = AlphaSchedule::SelfPaced.alpha(5, 10).unwrap();
        assert!((mid - 1.0).abs() < 1e-12);
        assert_eq!(AlphaSchedule::Constant(0.3).alpha(7, 10), Some(0.3));
        assert_eq!(AlphaSchedule::Uniform.alpha(3, 10), None);
    }

    #[test]
    fn factor_schedule_matches_paper() {
        assert_eq!(self_paced_factor(0, 10), 0.0);
        // tan(pi/4) = 1 at i = n/2.
        assert!((self_paced_factor(5, 10) - 1.0).abs() < 1e-12);
        // Grows without bound toward i = n.
        assert!(self_paced_factor(9, 10) > 6.0);
    }

    /// Synthetic hardness profile: a huge trivial bin near 0, a medium
    /// borderline band, and a few hard/noise samples near 1.
    fn skewed_hardness() -> Vec<f64> {
        let mut h = vec![0.02; 1000];
        h.extend(vec![0.5; 100]);
        h.extend(vec![0.98; 10]);
        h
    }

    #[test]
    fn alpha_zero_harmonizes_contribution() {
        // With alpha = 0, p_l = 1/h_l, so expected per-bin contribution
        // (quota * h_l) is roughly constant across nonempty bins.
        let h = skewed_hardness();
        let mut rng = SeededRng::new(1);
        let out = SelfPacedSampler { k_bins: 20 }.sample(&h, 0.0, 200, &mut rng);
        assert_eq!(out.selected.len(), 200);
        // Bin of 0.02 has ~25x the quota of bin of 0.5 (1/0.02 vs 1/0.5),
        // even though its population is only 10x.
        let quota_easy = out.per_bin[0];
        let quota_mid = out.per_bin[10]; // (0.5-0.02)/0.96*20 = bin 10
        assert!(quota_easy > quota_mid, "{:?}", out.per_bin);
    }

    #[test]
    fn large_alpha_equalizes_bins() {
        // alpha >> h flattens p_l, so each nonempty bin gets a similar
        // quota (clamped by population).
        let h = skewed_hardness();
        let mut rng = SeededRng::new(2);
        let out = SelfPacedSampler { k_bins: 20 }.sample(&h, 1e6, 60, &mut rng);
        assert_eq!(out.selected.len(), 60);
        let nonzero: Vec<usize> = out.per_bin.iter().copied().filter(|&q| q > 0).collect();
        // Three nonempty bins -> roughly 20 each; the tiny hard bin (10
        // samples) saturates and redistributes.
        assert_eq!(nonzero.iter().sum::<usize>(), 60);
        assert!(nonzero.len() >= 2);
        assert!(nonzero.iter().all(|&q| q >= 10), "{nonzero:?}");
    }

    #[test]
    fn alpha_growth_shifts_mass_toward_hard_bins() {
        let h = skewed_hardness();
        let mut rng = SeededRng::new(3);
        let sampler = SelfPacedSampler { k_bins: 20 };
        let lo = sampler.sample(&h, 0.0, 100, &mut rng);
        let hi = sampler.sample(&h, 10.0, 100, &mut rng);
        let hard_share = |o: &SampleOutcome| {
            o.selected.iter().filter(|&&i| h[i] > 0.9).count() as f64 / o.selected.len() as f64
        };
        assert!(hard_share(&hi) >= hard_share(&lo));
    }

    #[test]
    fn selection_has_no_duplicates() {
        let h = skewed_hardness();
        let mut rng = SeededRng::new(4);
        let out = SelfPacedSampler::default().sample(&h, 0.5, 300, &mut rng);
        let mut s = out.selected.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 300);
    }

    #[test]
    fn target_larger_than_population_returns_all() {
        let h = vec![0.1, 0.2, 0.3];
        let mut rng = SeededRng::new(5);
        let out = SelfPacedSampler::default().sample(&h, 0.0, 10, &mut rng);
        assert_eq!(out.selected, vec![0, 1, 2]);
    }

    #[test]
    fn exact_target_met_when_capacity_allows() {
        let h = skewed_hardness();
        let mut rng = SeededRng::new(6);
        for target in [1, 7, 50, 333, 1109] {
            let out = SelfPacedSampler::default().sample(&h, 0.3, target, &mut rng);
            assert_eq!(out.selected.len(), target.min(h.len()), "target {target}");
        }
    }

    #[test]
    fn quota_allocation_respects_capacity() {
        let weights = vec![1.0, 1.0, 1.0];
        let quota = allocate_quota(&weights, &[2, 6, 1], 7);
        assert!(quota[0] <= 2);
        assert!(quota[2] <= 1);
        assert_eq!(quota.iter().sum::<usize>(), 7);
    }

    #[test]
    fn uniform_schedule_targets_min_class() {
        let counts = [500usize, 40, 2000, 40];
        let t = BalancingSchedule::Uniform.targets(&counts, 0, 10);
        assert_eq!(t, vec![40, 40, 40, 40]);
        // Binary case reproduces the paper's |P| rule.
        assert_eq!(
            BalancingSchedule::Uniform.targets(&[900, 100], 5, 10),
            vec![100, 100]
        );
    }

    #[test]
    fn progressive_schedule_interpolates_toward_uniform() {
        let counts = [1000usize, 100];
        let first = BalancingSchedule::Progressive.targets(&counts, 0, 10);
        let mid = BalancingSchedule::Progressive.targets(&counts, 4, 10);
        let last = BalancingSchedule::Progressive.targets(&counts, 9, 10);
        assert_eq!(first, vec![910, 100]);
        assert_eq!(mid, vec![550, 100]);
        assert_eq!(last, vec![100, 100]);
        // Monotone non-increasing for the large class.
        let mut prev = usize::MAX;
        for i in 0..10 {
            let t = BalancingSchedule::Progressive.targets(&counts, i, 10)[0];
            assert!(t <= prev);
            prev = t;
        }
    }

    #[test]
    fn custom_schedule_clamps_to_population() {
        let counts = [50usize, 10, 0];
        let t = BalancingSchedule::Custom(vec![80, 5, 7]).targets(&counts, 0, 3);
        assert_eq!(t, vec![50, 5, 0]);
        // Zero targets are floored at 1 for non-empty classes.
        let t = BalancingSchedule::Custom(vec![0, 0, 0]).targets(&counts, 0, 3);
        assert_eq!(t, vec![1, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "target per class")]
    fn custom_schedule_rejects_wrong_length() {
        let _ = BalancingSchedule::Custom(vec![1, 2]).targets(&[5, 5, 5], 0, 1);
    }

    #[test]
    fn empty_bins_get_zero_weight() {
        let h = vec![0.0, 1.0]; // only first and last bins populated
        let mut rng = SeededRng::new(7);
        let out = SelfPacedSampler { k_bins: 10 }.sample(&h, 0.0, 1, &mut rng);
        for (l, &w) in out.weights.iter().enumerate() {
            if l != 0 && l != 9 {
                assert_eq!(w, 0.0);
            }
        }
    }
}
