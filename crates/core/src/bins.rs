//! Hardness histogram: Algorithm 1, line 5 ("cut majority set into k
//! bins w.r.t. H").
//!
//! The paper assumes `H ∈ [0, 1]` w.l.o.g.; cross-entropy is unbounded,
//! so bins here span the observed `[min, max]` of the hardness values —
//! identical to the paper's construction for AE/SE on any classifier
//! whose outputs cover the probability range, and well-defined for CE.

/// Per-bin statistics of a hardness distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct BinStats {
    /// Number of samples in the bin.
    pub population: usize,
    /// Mean hardness `h_ℓ` of the bin (0 for empty bins).
    pub mean_hardness: f64,
    /// Total hardness contribution Σ H of the bin.
    pub contribution: f64,
}

/// A hardness histogram over `k` equal-width bins.
///
/// Built row-parallel and bit-identically for every thread count: the
/// range and each row's bin are pure per-row work (min/max is exact in
/// any order), populations are integer counts, and each bin's
/// contribution is summed over its members in row order. Members are
/// counting-sorted into one flat buffer, so each bin's positions
/// ascend. The self-paced loops rebin the same majority set every
/// round, rebuilding one histogram in place over its per-row buffers.
#[derive(Clone, Debug, Default)]
pub struct HardnessBins {
    /// Bin index of each input sample.
    assignment: Vec<usize>,
    /// Sample positions grouped by bin, ascending within each bin.
    order: Vec<usize>,
    /// Bin `b` holds `order[offsets[b]..offsets[b + 1]]`.
    offsets: Vec<usize>,
    stats: Vec<BinStats>,
    lo: f64,
    hi: f64,
}

/// Fewest rows one parallel binning task handles.
const MIN_ROWS_PER_TASK: usize = 4096;

impl HardnessBins {
    /// Bins `hardness` values into `k` equal-width bins over their
    /// observed range.
    ///
    /// # Panics
    /// Panics if `k == 0`, `hardness` is empty or holds a non-finite
    /// value.
    pub fn cut(hardness: &[f64], k: usize) -> Self {
        let mut bins = Self::default();
        bins.recut(hardness, k);
        bins
    }

    /// Rebuilds these bins over `hardness` in place, exactly as
    /// [`Self::cut`] would, reusing the buffers of the previous cut.
    ///
    /// # Panics
    /// Same conditions as [`Self::cut`].
    pub(crate) fn recut(&mut self, hardness: &[f64], k: usize) {
        assert!(k > 0, "need at least one bin");
        assert!(!hardness.is_empty(), "cannot bin an empty set");
        let n = hardness.len();
        // The range, row-parallel: min/max give the same answer in any
        // association order.
        let (lo, hi) = spe_runtime::par_chunks(n, MIN_ROWS_PER_TASK, |range| {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut finite = true;
            for &h in &hardness[range] {
                finite &= h.is_finite();
                lo = if h < lo { h } else { lo };
                hi = if h > hi { h } else { hi };
            }
            (lo, hi, finite)
        })
        .into_iter()
        .fold(
            (f64::INFINITY, f64::NEG_INFINITY),
            |(lo, hi), (l, h, finite)| {
                assert!(finite, "hardness must be finite");
                (lo.min(l), hi.max(h))
            },
        );
        self.lo = lo;
        self.hi = hi;

        // Each row's bin, row-parallel, with per-chunk populations
        // (integer counts: their sum is the same however rows are
        // chunked).
        self.assignment.resize(n, 0);
        let width = (hi - lo).max(1e-12);
        let counts =
            spe_runtime::par_chunks_mut(&mut self.assignment, MIN_ROWS_PER_TASK, |start, chunk| {
                let mut counts = vec![0usize; k];
                for (slot, &h) in chunk.iter_mut().zip(&hardness[start..]) {
                    let b = bin_of(h, lo, width, k);
                    *slot = b;
                    counts[b] += 1;
                }
                counts
            });

        // Counting sort: bin offsets from the populations, then one
        // row-order scatter keeps each bin's positions ascending.
        self.offsets.clear();
        self.offsets.push(0);
        let mut total = 0;
        for b in 0..k {
            total += counts.iter().map(|c| c[b]).sum::<usize>();
            self.offsets.push(total);
        }
        self.order.resize(n, 0);
        let mut cursor = self.offsets[..k].to_vec();
        for (i, &b) in self.assignment.iter().enumerate() {
            self.order[cursor[b]] = i;
            cursor[b] += 1;
        }

        // Each bin's contribution sums its members in row order, bins
        // in parallel.
        let (order, offsets) = (&self.order, &self.offsets);
        self.stats = spe_runtime::par_map_indexed(k, |b| {
            let members = &order[offsets[b]..offsets[b + 1]];
            let contribution: f64 = members.iter().fold(0.0, |acc, &i| acc + hardness[i]);
            BinStats {
                population: members.len(),
                mean_hardness: if members.is_empty() {
                    0.0
                } else {
                    contribution / members.len() as f64
                },
                contribution,
            }
        });
    }

    /// Number of bins.
    pub fn k(&self) -> usize {
        self.stats.len()
    }

    /// Per-bin statistics.
    pub fn stats(&self) -> &[BinStats] {
        &self.stats
    }

    /// Bin index of each input sample.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Sample positions (into the binned hardness slice) of bin `b`,
    /// ascending.
    pub fn members(&self, b: usize) -> &[usize] {
        &self.order[self.offsets[b]..self.offsets[b + 1]]
    }

    /// The bin a finite hardness value `h` falls in under these bins'
    /// edges (values outside the observed range clamp to the end bins).
    pub fn bin_of(&self, h: f64) -> usize {
        bin_of(h, self.lo, (self.hi - self.lo).max(1e-12), self.k())
    }

    /// Observed hardness range the bins span.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }
}

/// Equal-width bin of `h` over `[lo, lo + width]`, clamped to `0..k`.
/// Clamping before the integer cast (`floor(min(q, k − 1))` is
/// `min(floor(q), k − 1)`) keeps the cast off the saturating slow path.
#[inline]
fn bin_of(h: f64, lo: f64, width: f64, k: usize) -> usize {
    let k = k as f64;
    (((h - lo) / width) * k).min(k - 1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populations_sum_to_input_len() {
        let h = [0.0, 0.1, 0.2, 0.5, 0.9, 1.0];
        let bins = HardnessBins::cut(&h, 5);
        let total: usize = bins.stats().iter().map(|s| s.population).sum();
        assert_eq!(total, 6);
        assert_eq!(bins.k(), 5);
    }

    #[test]
    fn max_value_lands_in_last_bin() {
        let h = [0.0, 0.5, 1.0];
        let bins = HardnessBins::cut(&h, 10);
        assert_eq!(bins.assignment()[2], 9);
        assert_eq!(bins.assignment()[0], 0);
    }

    #[test]
    fn mean_hardness_is_per_bin_average() {
        let h = [0.0, 0.05, 0.95, 1.0];
        let bins = HardnessBins::cut(&h, 2);
        let s = bins.stats();
        assert_eq!(s[0].population, 2);
        assert!((s[0].mean_hardness - 0.025).abs() < 1e-12);
        assert!((s[1].mean_hardness - 0.975).abs() < 1e-12);
        assert!((s[1].contribution - 1.95).abs() < 1e-12);
    }

    #[test]
    fn constant_hardness_fills_one_bin() {
        let h = [0.3; 8];
        let bins = HardnessBins::cut(&h, 4);
        let nonempty: Vec<usize> = bins
            .stats()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.population > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(nonempty.len(), 1);
        assert_eq!(bins.stats()[nonempty[0]].population, 8);
    }

    #[test]
    fn unbounded_values_binned_by_observed_range() {
        // Cross-entropy style values far above 1.
        let h = [0.1, 5.0, 10.0, 27.6];
        let bins = HardnessBins::cut(&h, 4);
        assert_eq!(bins.assignment()[0], 0);
        assert_eq!(bins.assignment()[3], 3);
        let (lo, hi) = bins.range();
        assert_eq!(lo, 0.1);
        assert_eq!(hi, 27.6);
    }

    #[test]
    fn members_are_consistent_with_assignment() {
        let h = [0.0, 0.5, 1.0, 0.51];
        let bins = HardnessBins::cut(&h, 2);
        for b in 0..2 {
            for &i in bins.members(b) {
                assert_eq!(bins.assignment()[i], b);
            }
        }
        assert_eq!(bins.members(0), &[0]);
        assert_eq!(bins.members(1), &[1, 2, 3]);
    }

    #[test]
    fn recut_in_place_matches_a_fresh_cut_at_any_thread_count() {
        let h: Vec<f64> = (0..20_000)
            .map(|i| ((i * 7919) % 1000) as f64 / 999.0)
            .collect();
        let fresh = spe_runtime::Runtime::with_threads(1).install(|| HardnessBins::cut(&h, 13));
        let mut reused = HardnessBins::cut(&[0.3, 0.1, 0.2], 4);
        for threads in [2, 4] {
            spe_runtime::Runtime::with_threads(threads).install(|| reused.recut(&h, 13));
            assert_eq!(reused.stats(), fresh.stats(), "{threads} threads");
            assert_eq!(reused.assignment(), fresh.assignment());
            assert_eq!(reused.range(), fresh.range());
            for b in 0..13 {
                assert_eq!(reused.members(b), fresh.members(b));
            }
        }
        assert_eq!(fresh.bin_of(h[5]), fresh.assignment()[5]);
    }

    #[test]
    #[should_panic(expected = "hardness must be finite")]
    fn rejects_nan() {
        let _ = HardnessBins::cut(&[0.1, f64::NAN], 2);
    }
}
